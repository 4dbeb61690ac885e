module Obs = Acfc_obs

(* Specialised event queue: a binary min-heap on (time, seq) laid out as
   parallel scalar columns — unboxed float times, int seqs, and int pool
   slots — so a push/pop allocates nothing and sifting moves only
   scalars. Job payloads (closures, continuations) sit still in a
   free-listed pool: a heap entry points at its pool slot, so no pointer
   ever moves through the sift loop's write barrier. [seq] breaks time
   ties in schedule order, which keeps same-instant events FIFO and runs
   deterministic.

   Exposed in the interface for the property tests, which replay random
   (time, seq) sequences against a sorted list. *)
module Equeue = struct
  type job =
    | Nop
    | Thunk of (unit -> unit)
    | Cont of (unit, unit) Effect.Deep.continuation

  type t = {
    mutable ts : float array;
    mutable sq : int array;
    mutable js : int array; (* heap index -> pool slot *)
    mutable jobs : job array; (* pool slot -> payload; Nop when free *)
    mutable free : int array; (* stack of free pool slots *)
    mutable nfree : int;
    mutable size : int;
    st : float array; (* staged push time; see [stage] / [push_staged] *)
  }

  (* Pool capacity always equals heap capacity: size + nfree = cap. *)
  let create () =
    {
      ts = Array.make 64 0.0;
      sq = Array.make 64 0;
      js = Array.make 64 0;
      jobs = Array.make 64 Nop;
      free = Array.init 64 (fun i -> 63 - i);
      nfree = 64;
      size = 0;
      st = Array.make 1 0.0;
    }

  let length t = t.size

  let is_empty t = t.size = 0

  let grow t =
    let old = Array.length t.ts in
    let cap = 2 * old in
    let ts = Array.make cap 0.0
    and sq = Array.make cap 0
    and js = Array.make cap 0
    and jobs = Array.make cap Nop
    and free = Array.make cap 0 in
    Array.blit t.ts 0 ts 0 t.size;
    Array.blit t.sq 0 sq 0 t.size;
    Array.blit t.js 0 js 0 t.size;
    Array.blit t.jobs 0 jobs 0 old;
    Array.blit t.free 0 free 0 t.nfree;
    for i = 0 to old - 1 do
      free.(t.nfree + i) <- old + i
    done;
    t.nfree <- t.nfree + old;
    t.ts <- ts;
    t.sq <- sq;
    t.js <- js;
    t.jobs <- jobs;
    t.free <- free

  (* (time, seq) lexicographic. Forced inline: as an out-of-line call
     the [tm] float argument would be boxed once per sift level. *)
  let[@inline always] leq t i tm sq =
    t.ts.(i) < tm || (t.ts.(i) = tm && t.sq.(i) <= sq)

  (* A float passed to the non-inlined [push] is boxed at the call; the
     hot paths instead write it into the unboxed [st] slot ([stage] is
     small enough to inline, so the store stays unboxed) and call
     [push_staged]. *)
  let[@inline] stage t time = t.st.(0) <- time

  let push_staged t ~seq job =
    let time = t.st.(0) in
    if t.size = Array.length t.ts then grow t;
    let slot = t.free.(t.nfree - 1) in
    t.nfree <- t.nfree - 1;
    t.jobs.(slot) <- job;
    let i = ref t.size in
    t.size <- t.size + 1;
    (* Sift up with the hole trick: slide parents down, store once. *)
    let stop = ref false in
    while (not !stop) && !i > 0 do
      let parent = (!i - 1) / 2 in
      if leq t parent time seq then stop := true
      else begin
        t.ts.(!i) <- t.ts.(parent);
        t.sq.(!i) <- t.sq.(parent);
        t.js.(!i) <- t.js.(parent);
        i := parent
      end
    done;
    t.ts.(!i) <- time;
    t.sq.(!i) <- seq;
    t.js.(!i) <- slot

  let push t ~time ~seq job =
    stage t time;
    push_staged t ~seq job

  let top_time t =
    if t.size = 0 then invalid_arg "Equeue.top_time: empty queue";
    t.ts.(0)

  let pop t =
    if t.size = 0 then invalid_arg "Equeue.pop: empty queue";
    let slot = t.js.(0) in
    let job = t.jobs.(slot) in
    t.jobs.(slot) <- Nop;
    t.free.(t.nfree) <- slot;
    t.nfree <- t.nfree + 1;
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let tm = t.ts.(n) and sq = t.sq.(n) and js = t.js.(n) in
      let i = ref 0 in
      let stop = ref false in
      while not !stop do
        let l = (2 * !i) + 1 in
        if l >= n then stop := true
        else begin
          let r = l + 1 in
          let c =
            if r < n && not (leq t l t.ts.(r) t.sq.(r)) then r else l
          in
          if leq t c tm sq && not (t.ts.(c) = tm && t.sq.(c) = sq) then begin
            t.ts.(!i) <- t.ts.(c);
            t.sq.(!i) <- t.sq.(c);
            t.js.(!i) <- t.js.(c);
            i := c
          end
          else stop := true
        end
      done;
      t.ts.(!i) <- tm;
      t.sq.(!i) <- sq;
      t.js.(!i) <- js
    end;
    job
end

(* FIFO of parked fibers, as a power-of-two ring over two parallel
   columns: the [Cont k] job that wakes each one (built once at park and
   handed to the run queue as is) and its fiber id, whose flag is
   cleared at wake. Empty until the first park. *)
type waitq = {
  mutable wjobs : Equeue.job array;
  mutable wids : int array;
  mutable whead : int;
  mutable wlen : int;
}

type t = {
  (* Virtual time, in a 1-element float array so reads and writes stay
     unboxed (a mutable float field in this mixed record would box on
     every clock advance). *)
  clock : float array;
  mutable seq : int;
  events : Equeue.t;
  (* Ready ring: FIFO of jobs due exactly now. A completion scheduled at
     the current instant, when nothing in the heap could run before it,
     bypasses the heap entirely — so a disk batch or an ivar broadcast
     costs one ring slot per waiter instead of one heap op each. *)
  mutable rbuf : Equeue.job array;
  mutable rhead : int;
  mutable rtail : int; (* rtail - rhead = occupancy; indices mod capacity *)
  mutable live : int; (* fibers spawned and not finished *)
  mutable waiting : int; (* fibers currently suspended (sleepers included) *)
  (* The fiber registry: a fiber is an id, issued at spawn from a stack
     of free ids and returned when it finishes, with a name, a blocked
     flag and a keyed-park slot. The flag is set while the fiber waits
     in a {!waitq} or under its key (never while it sleeps: its wake
     event is queued, so it cannot deadlock). [fjobs] holds the [Cont]
     job of a fiber parked under its key, [Nop] otherwise. Parking and
     waking store only ints and that one job; the flags are scanned
     only when {!Deadlock} is raised. Empty until the first spawn. *)
  mutable fnames : string array;
  mutable fblocked : int array;
  mutable fjobs : Equeue.job array;
  mutable free_ids : int array;
  mutable nfree : int;
  (* True only while a fiber runs. Every fiber is entered from the run
     loop (its start or a [Cont] job) or by [resume_key] as a job's
     last action, so when it blocks, control returns to the loop with
     nothing else left to run in this job: the precondition for an
     in-place delay. A [schedule] callback runs with the flag clear, so
     a delay made there (or outside any run) still raises
     [Effect.Unhandled] instead of moving the clock. *)
  mutable direct : bool;
  (* Latest time the current [run]/[run_until] may reach, unboxed. *)
  horizon : float array;
  mutable processed : int;
  mutable obs : Obs.Sink.t option;
  sleep_at : float array; (* argument slot for the Sleep effect: the wake time *)
  mutable sleep_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  (* Argument slots for the Park effects: the queue or the key's
     registrar, and the id of the parking fiber as named by its own
     handler. *)
  mutable park_q : waitq;
  mutable park_register : int -> unit;
  mutable parker : int;
  mutable park_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable park_keyed_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

exception Deadlock of string

(* Fast-path sleep: [delay] and [delay_until] pass the wake time through
   [sleep_at] (an unboxed float slot) and perform the argument-less
   [Sleep], so suspending allocates no effect payload, no resume
   closure and no heap record — just the captured continuation. *)
type _ Effect.t += Sleep : unit Effect.t

(* Park on a wait queue, with the same argument-slot discipline. *)
type _ Effect.t += Park : unit Effect.t

(* Park under the fiber's own id (see {!park_keyed}). *)
type _ Effect.t += Park_keyed : unit Effect.t

(* Enter a new fiber into the registry under a free id, growing the
   columns when none is left. *)
let register_fiber t name =
  if t.nfree = 0 then begin
    let old = Array.length t.fnames in
    let cap = Stdlib.max 4 (2 * old) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.fnames <- grow t.fnames "";
    t.fblocked <- grow t.fblocked 0;
    t.fjobs <- grow t.fjobs Equeue.Nop;
    (* Every old id is in use: the free ids are the new ones. *)
    t.free_ids <- Array.make cap 0;
    for i = 0 to cap - old - 1 do
      t.free_ids.(i) <- cap - 1 - i
    done;
    t.nfree <- cap - old
  end;
  t.nfree <- t.nfree - 1;
  let id = t.free_ids.(t.nfree) in
  t.fnames.(id) <- name;
  id

(* A finished fiber is never blocked, so its flag is already clear. *)
let release_fiber t id =
  t.free_ids.(t.nfree) <- id;
  t.nfree <- t.nfree + 1

let[@inline] block t id = t.fblocked.(id) <- 1

let[@inline] unblock t id = t.fblocked.(id) <- 0

let blocked_names t =
  let names = ref [] in
  Array.iteri (fun id b -> if b = 1 then names := t.fnames.(id) :: !names) t.fblocked;
  List.sort compare !names

let ring_length t = t.rtail - t.rhead

let ring_push t job =
  let cap = Array.length t.rbuf in
  if ring_length t = cap then begin
    let nbuf = Array.make (2 * cap) Equeue.Nop in
    for i = 0 to cap - 1 do
      nbuf.(i) <- t.rbuf.((t.rhead + i) land (cap - 1))
    done;
    t.rbuf <- nbuf;
    t.rhead <- 0;
    t.rtail <- cap
  end;
  t.rbuf.(t.rtail land (Array.length t.rbuf - 1)) <- job;
  t.rtail <- t.rtail + 1

let ring_pop t =
  let i = t.rhead land (Array.length t.rbuf - 1) in
  let job = t.rbuf.(i) in
  t.rbuf.(i) <- Equeue.Nop;
  t.rhead <- t.rhead + 1;
  job

(* Queue [job] at [at], which is not in the past. An event due exactly
   now, with nothing in the heap able to run before it, goes to the
   ready ring: same firing order as a heap push (any same-time heap
   event already present would have top_time = at and forces the heap
   path; later pushes get larger seqs and fire after). Inlined into
   every caller, so [at] stays unboxed. *)
let[@inline] route t at job =
  (* [Equeue] fields are read directly here and below: [top_time] is an
     arm's-length call whose float return would box on the hot path. *)
  if at = t.clock.(0) && (Equeue.is_empty t.events || t.events.Equeue.ts.(0) > at)
  then ring_push t job
  else begin
    t.seq <- t.seq + 1;
    Equeue.stage t.events at;
    Equeue.push_staged t.events ~seq:t.seq job
  end

(* Queue a sleeping fiber's continuation at its wake time. The wake
   time is never in the past, so no check is needed. *)
let sleep_push t k = route t t.sleep_at.(0) (Equeue.Cont k)

let waitq () = { wjobs = [||]; wids = [||]; whead = 0; wlen = 0 }

let waiters q = q.wlen

let waitq_push q job id =
  let cap = Array.length q.wjobs in
  if q.wlen = cap then begin
    let ncap = Stdlib.max 4 (2 * cap) in
    let jobs = Array.make ncap Equeue.Nop and ids = Array.make ncap 0 in
    for i = 0 to q.wlen - 1 do
      let j = (q.whead + i) land (cap - 1) in
      jobs.(i) <- q.wjobs.(j);
      ids.(i) <- q.wids.(j)
    done;
    q.wjobs <- jobs;
    q.wids <- ids;
    q.whead <- 0
  end;
  let i = (q.whead + q.wlen) land (Array.length q.wjobs - 1) in
  q.wjobs.(i) <- job;
  q.wids.(i) <- id;
  q.wlen <- q.wlen + 1

let create () =
  let t =
    {
      clock = Array.make 1 0.0;
      seq = 0;
      events = Equeue.create ();
      rbuf = Array.make 64 Equeue.Nop;
      rhead = 0;
      rtail = 0;
      live = 0;
      waiting = 0;
      fnames = [||];
      fblocked = [||];
      fjobs = [||];
      free_ids = [||];
      nfree = 0;
      direct = false;
      horizon = Array.make 1 Float.infinity;
      processed = 0;
      obs = None;
      sleep_at = Array.make 1 0.0;
      sleep_some = None;
      park_q = waitq ();
      park_register = ignore;
      parker = -1;
      park_some = None;
      park_keyed_some = None;
    }
  in
  (* One handler closure per engine, shared by every fiber: performing
     Sleep finds it pre-allocated. A sleeping fiber counts as waiting
     but is never flagged [blocked] — its wake event is in the queue, so
     it cannot deadlock. *)
  t.sleep_some <-
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        t.waiting <- t.waiting + 1;
        sleep_push t k);
  (* Likewise for Park: the parking fiber's own handler has just put
     its id in [parker], so this shared closure needs no per-fiber
     copy. *)
  t.park_some <-
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        let id = t.parker in
        t.waiting <- t.waiting + 1;
        block t id;
        waitq_push t.park_q (Equeue.Cont k) id);
  (* And for Park_keyed: the job waits in the fiber's own slot, and
     the owner of the wait learns the key before any other job runs. *)
  t.park_keyed_some <-
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        let id = t.parker in
        t.waiting <- t.waiting + 1;
        block t id;
        t.fjobs.(id) <- Equeue.Cont k;
        t.park_register id);
  t

let now t = t.clock.(0)

let set_obs t obs =
  t.obs <- obs;
  match obs with
  | None -> ()
  | Some sink ->
    (* The engine owns virtual time, so it owns the sink's clock. *)
    Obs.Sink.set_clock sink (fun () -> t.clock.(0));
    let m = Obs.Sink.metrics sink in
    Obs.Metrics.gauge m "sim.clock" (fun () -> t.clock.(0));
    Obs.Metrics.gauge m "sim.live_fibers" (fun () -> float_of_int t.live);
    Obs.Metrics.gauge m "sim.waiting_fibers" (fun () -> float_of_int t.waiting);
    Obs.Metrics.gauge m "sim.events_processed" (fun () -> float_of_int t.processed);
    Obs.Metrics.gauge m "sim.pending_events" (fun () ->
        float_of_int (Equeue.length t.events + ring_length t))

type job = Equeue.job

let job f = Equeue.Thunk f

(* Out of line, so the inlined entry below stays small; only a refused
   call boxes its times. *)
let past at now =
  invalid_arg (Printf.sprintf "Engine.schedule: time %g is in the past (now %g)" at now)

let[@inline] schedule_job t ~at job =
  let now = t.clock.(0) in
  if at < now then past at now;
  route t at job

let schedule t ~at thunk = schedule_job t ~at (Equeue.Thunk thunk)

(* [route] at the current instant. *)
let[@inline] schedule_now t job = route t t.clock.(0) job

(* Fiber-local knowledge of "who am I" is threaded through the effect
   handler: each fiber runs under its own handler that knows its id, so
   blocking bookkeeping can name the stuck fiber. The three handler
   functions are one [let rec], so they share one closure block: the id
   release in [exnc] costs no closure of its own. *)
let start_fiber t ~name f =
  t.live <- t.live + 1;
  (match t.obs with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink (Obs.Trace.Fiber { name; op = "spawn" }));
  let id = register_fiber t name in
  let open Effect.Deep in
  let[@warning "-39"] rec retc () =
    t.live <- t.live - 1;
    (match t.obs with
    | None -> ()
    | Some sink -> Obs.Sink.emit sink (Obs.Trace.Fiber { name = t.fnames.(id); op = "finish" }));
    release_fiber t id
  and exnc e =
    release_fiber t id;
    raise e
  and effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option = function
    | Sleep -> t.sleep_some
    | Park ->
      t.parker <- id;
      t.park_some
    | Park_keyed ->
      t.parker <- id;
      t.park_keyed_some
    | _ -> None
  in
  t.direct <- true;
  match_with f () { retc; exnc; effc };
  t.direct <- false

let spawn t ?(name = "fiber") f =
  schedule_now t (Equeue.Thunk (fun () -> start_fiber t ~name f))

(* In place: when the caller is a fiber ([direct]), nothing is in the
   ready ring, the heap's earliest event is strictly later than the
   wake time and the wake time is within the horizon, the sleeper's
   continuation would be the very next job the run loop pops. So
   advance the clock and count the event exactly as that pop would (a
   heap push would also have taken a seq), and keep running — no
   effect, no continuation, no queue traffic. Otherwise sleep through
   the queue. Inlined into both callers, so [at] stays unboxed. *)
let[@inline] sleep_until t ~now at =
  if
    t.direct && t.rtail = t.rhead
    && at <= t.horizon.(0)
    && (Equeue.is_empty t.events || t.events.Equeue.ts.(0) > at)
  then begin
    if at <> now then t.seq <- t.seq + 1;
    t.clock.(0) <- at;
    t.processed <- t.processed + 1
  end
  else begin
    t.sleep_at.(0) <- at;
    Effect.perform Sleep
  end

let delay t dt =
  if dt < 0.0 then invalid_arg "Engine.delay: negative delay";
  if dt = 0.0 then ()
  else begin
    let now = t.clock.(0) in
    sleep_until t ~now (now +. dt)
  end

let[@inline] delay_until t at =
  let now = t.clock.(0) in
  if not (at >= now) then invalid_arg "Engine.delay_until: time in the past";
  if at > now then sleep_until t ~now at

let park t q =
  t.park_q <- q;
  Effect.perform Park

let park_keyed t register =
  t.park_register <- register;
  Effect.perform Park_keyed

(* Resume inside the running job: the fiber runs as a [Cont] job
   popped by the loop would, flagged [direct], so its delays may go in
   place. That is sound only because the caller does nothing after the
   resume, and a fiber cannot call it: the flag would be wrong on its
   return. *)
let resume_key t key =
  if t.direct then invalid_arg "Engine.resume_key: called from a fiber";
  if key < 0 || key >= Array.length t.fjobs || t.fjobs.(key) == Equeue.Nop then
    invalid_arg "Engine.resume_key: no fiber is parked under this key";
  match t.fjobs.(key) with
  | Equeue.Cont k ->
    t.fjobs.(key) <- Equeue.Nop;
    unblock t key;
    t.waiting <- t.waiting - 1;
    t.direct <- true;
    Effect.Deep.continue k ();
    t.direct <- false
  | Equeue.Thunk _ | Equeue.Nop -> assert false

(* Take the longest-parked fiber's wake-up job off a non-empty queue,
   clearing its blocked flag. *)
let take t q =
  let i = q.whead in
  let job = q.wjobs.(i) in
  q.wjobs.(i) <- Equeue.Nop;
  q.whead <- (i + 1) land (Array.length q.wjobs - 1);
  q.wlen <- q.wlen - 1;
  unblock t q.wids.(i);
  job

let wake_one t q =
  if q.wlen = 0 then false
  else begin
    schedule_now t (take t q);
    true
  end

let wake_all t q =
  while wake_one t q do
    ()
  done

let run_job t job =
  match job with
  | Equeue.Thunk f -> f ()
  | Equeue.Cont k ->
    t.waiting <- t.waiting - 1;
    t.direct <- true;
    Effect.Deep.continue k ();
    t.direct <- false
  | Equeue.Nop -> ()

let step t =
  if t.rtail <> t.rhead then begin
    t.processed <- t.processed + 1;
    run_job t (ring_pop t);
    true
  end
  else if Equeue.is_empty t.events then false
  else begin
    t.clock.(0) <- t.events.Equeue.ts.(0);
    let job = Equeue.pop t.events in
    t.processed <- t.processed + 1;
    run_job t job;
    true
  end

(* An exception escaping a fiber leaves the loop mid-job; clear
   [direct] so a [delay] made outside any run still fails as it must. *)
let guarded t loop =
  match loop t with
  | () -> ()
  | exception e ->
    t.direct <- false;
    raise e

let drain t =
  while step t do
    ()
  done

let run t =
  t.horizon.(0) <- Float.infinity;
  guarded t drain;
  if t.waiting > 0 then raise (Deadlock (String.concat ", " (blocked_names t)))

let drain_until t =
  let horizon = t.horizon.(0) in
  let continue_ = ref true in
  while !continue_ do
    if t.rtail <> t.rhead then
      (* Ring entries are due exactly now. *)
      if t.clock.(0) <= horizon then ignore (step t) else continue_ := false
    else if
      (not (Equeue.is_empty t.events)) && t.events.Equeue.ts.(0) <= horizon
    then ignore (step t)
    else continue_ := false
  done;
  if t.clock.(0) < horizon then t.clock.(0) <- horizon

let run_until t horizon =
  t.horizon.(0) <- horizon;
  guarded t drain_until

let fiber_count t = t.live

let events_processed t = t.processed

(* Inlined, so a caller comparing or accumulating the result keeps it
   unboxed. *)
let[@inline] next_event_time t =
  if t.rtail <> t.rhead then t.clock.(0)
  else if Equeue.is_empty t.events then Float.infinity
  else t.events.Equeue.ts.(0)
