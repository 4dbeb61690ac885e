open Acfc_sim
module Obs = Acfc_obs

type kind = Read | Write

type sched = Fcfs | Scan

type obs_state = {
  sink : Obs.Sink.t;
  h_service : Obs.Metrics.histogram;  (* seconds per request, in service *)
  h_wait : Obs.Metrics.histogram;  (* seconds queued before service *)
}

(* The tag of a blocking {!io} whose caller has not parked yet; once it
   has, the tag is the caller's fiber key. *)
let unparked = -1

type t = {
  engine : Engine.t;
  params : Params.t;
  bus : Bus.t option;
  rng : Rng.t option;
  sched : sched;
  mutable obs : obs_state option;
  mutable busy : bool;
  (* Slots waiting for the drive, filed under their addresses; the
     discipline picks the next one at each completion. *)
  queue : Sched_queue.t;
  (* A request lives in a slot of these columns from submission to
     completion, and completes by calling its [dones] callback on its
     [tags] value; free slots are stacked in [free]. *)
  mutable kinds : kind array;
  mutable addrs : int array;
  mutable sizes : int array;
  mutable tags : int array;
  mutable dones : (int -> unit) array;
  mutable starts : Engine.job array;  (* per slot: begin service after a wait *)
  mutable arrived : float array;  (* per slot: when it queued *)
  mutable free : int array;
  mutable nfree : int;
  mutable current : int;  (* the slot in service *)
  (* The stage jobs, and the park registrar and completion callback of
     a blocking {!io}, built once per drive in [create], so a request
     allocates nothing on its way through. *)
  mutable positioned : Engine.job;
  mutable transferred : Engine.job;
  mutable register : int -> unit;
  mutable resume : int -> unit;
  mutable parker : int;  (* the slot whose caller is parking *)
  mutable done_unparked : bool;  (* it completed before its caller parked *)
  mutable head : int;  (* block address after the last transfer *)
  mutable reads : int;
  mutable writes : int;
  mutable sequential_hits : int;
  mutable blocks_transferred : int;
  (* Busy time, queueing delay, and the request in service's own wait,
     start, seek, rotation and transfer times, in one unboxed column: a
     mutable float field in this mixed record would box on every
     update. *)
  acct : float array;
}

let busy_i = 0

let wait_i = 1

let waited_i = 2

let started_i = 3

let seek_i = 4

let rot_i = 5

let xfer_i = 6

let params t = t.params

let sched t = t.sched

let queue_length t = Sched_queue.length t.queue

let set_obs t obs =
  match obs with
  | None -> t.obs <- None
  | Some sink ->
    let m = Obs.Sink.metrics sink in
    let name = t.params.Params.name in
    let h label = Obs.Metrics.histogram m (Printf.sprintf "disk.%s.%s" name label) in
    let g label read = Obs.Metrics.gauge m (Printf.sprintf "disk.%s.%s" name label) read in
    g "reads" (fun () -> float_of_int t.reads);
    g "writes" (fun () -> float_of_int t.writes);
    g "sequential_hits" (fun () -> float_of_int t.sequential_hits);
    g "blocks_transferred" (fun () -> float_of_int t.blocks_transferred);
    g "busy_s" (fun () -> t.acct.(busy_i));
    g "wait_s" (fun () -> t.acct.(wait_i));
    g "queue_depth" (fun () -> float_of_int (queue_length t));
    t.obs <- Some { sink; h_service = h "service_s"; h_wait = h "wait_s_hist" }

let check_addr t addr =
  if addr < 0 || addr >= t.params.Params.capacity_blocks then
    invalid_arg
      (Printf.sprintf "Disk.io(%s): address %d out of range" t.params.Params.name addr)

let rotational_latency t ~sequential =
  let avg = t.params.Params.avg_rot_ms /. 1000.0 in
  if sequential then t.params.Params.seq_rot_factor *. avg
  else
    match t.rng with
    | None -> avg
    | Some rng -> Rng.float rng (2.0 *. avg)

let service_time t ~addr =
  check_addr t addr;
  let sequential = addr = t.head in
  let distance = abs (addr - t.head) in
  let avg_rot = t.params.Params.avg_rot_ms /. 1000.0 in
  (t.params.Params.overhead_ms /. 1000.0)
  +. Params.seek_time_s t.params ~distance
  +. (if sequential then t.params.Params.seq_rot_factor *. avg_rot else avg_rot)
  +. Params.transfer_time_s t.params

let account t s =
  let addr = t.addrs.(s) and blocks = t.sizes.(s) in
  t.head <- addr + blocks;
  t.blocks_transferred <- t.blocks_transferred + blocks;
  (match t.kinds.(s) with
  | Read -> t.reads <- t.reads + 1
  | Write -> t.writes <- t.writes + 1);
  let service = Engine.now t.engine -. t.acct.(started_i) in
  t.acct.(busy_i) <- t.acct.(busy_i) +. service;
  match t.obs with
  | None -> ()
  | Some { sink; h_service; h_wait } ->
    let waited = t.acct.(waited_i) in
    Obs.Metrics.observe h_service service;
    Obs.Metrics.observe h_wait waited;
    Obs.Sink.emit sink
      (Obs.Trace.Disk_io
         {
           disk = t.params.Params.name;
           kind = (match t.kinds.(s) with Read -> "read" | Write -> "write");
           addr;
           blocks;
           seek = t.acct.(seek_i);
           rot = t.acct.(rot_i);
           xfer = t.acct.(xfer_i);
           wait = waited;
         })

(* The transfer is over: account for the request, pass the drive to the
   slot the discipline picks (arrival order for FCFS, elevator order
   from the current head for SCAN; [busy] stays true across the
   handoff), free the slot, then complete. Completing is the last
   action, so a resumed fiber may take its next delays in place. *)
let transferred t =
  let s = t.current in
  account t s;
  if Sched_queue.is_empty t.queue then t.busy <- false
  else Engine.schedule_now t.engine t.starts.(Sched_queue.pick t.queue ~head:t.head);
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  t.dones.(s) t.tags.(s)

(* Positioning is over. A clustered request streams its blocks in one
   rotation-aligned burst: one positioning, [blocks] transfers. The bus
   slot is booked only now: another drive may have taken the bus while
   this one positioned. The completion goes where a fiber's
   [delay_until] (bus) or [delay] (no bus) would wake. *)
let positioned t =
  let now = Engine.now t.engine in
  let transfer = float_of_int t.sizes.(t.current) *. Params.transfer_time_s t.params in
  t.acct.(xfer_i) <- transfer;
  match t.bus with
  | Some bus ->
    let finish = Bus.reserve bus ~duration:transfer in
    if finish > now then Engine.schedule_job t.engine ~at:finish t.transferred
    else transferred t
  | None ->
    if transfer = 0.0 then transferred t
    else Engine.schedule_job t.engine ~at:(now +. transfer) t.transferred

(* Positioning, decomposed so the trace can attribute the time. Its end
   is scheduled at [now +. (seek +. rot)], where a fiber's [delay]
   would wake; a zero delay goes on with no event, as [delay] does. *)
let begin_service t s =
  t.current <- s;
  let now = Engine.now t.engine in
  let addr = t.addrs.(s) in
  t.acct.(started_i) <- now;
  let sequential = addr = t.head in
  if sequential then t.sequential_hits <- t.sequential_hits + 1;
  let distance = abs (addr - t.head) in
  let seek =
    (t.params.Params.overhead_ms /. 1000.0) +. Params.seek_time_s t.params ~distance
  in
  let rot = rotational_latency t ~sequential in
  t.acct.(seek_i) <- seek;
  t.acct.(rot_i) <- rot;
  let dt = seek +. rot in
  if dt < 0.0 then invalid_arg "Disk: negative positioning time";
  if dt = 0.0 then positioned t else Engine.schedule_job t.engine ~at:(now +. dt) t.positioned

(* A queued request handed the drive starts in its own event at the
   current instant, the slot a woken fiber would take. *)
let start_queued t s =
  let waited = Engine.now t.engine -. t.arrived.(s) in
  t.acct.(wait_i) <- t.acct.(wait_i) +. waited;
  t.acct.(waited_i) <- waited;
  begin_service t s

(* Grow the slot columns, building the new slots' start jobs. *)
let grow t =
  let old = Array.length t.addrs in
  let cap = Stdlib.max 4 (2 * old) in
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.kinds <- grow t.kinds Read;
  t.addrs <- grow t.addrs 0;
  t.sizes <- grow t.sizes 0;
  t.tags <- grow t.tags 0;
  t.dones <- grow t.dones ignore;
  t.arrived <- grow t.arrived 0.0;
  t.starts <- grow t.starts t.positioned;
  for s = old to cap - 1 do
    t.starts.(s) <- Engine.job (fun () -> start_queued t s)
  done;
  (* Every old slot is taken: the free ones are the new ones. *)
  t.free <- Array.init cap (fun i -> cap - 1 - i);
  t.nfree <- cap - old

let create engine ?bus ?rng ?(sched = Fcfs) params =
  let queue =
    Sched_queue.create (match sched with Fcfs -> Sched_queue.Fcfs | Scan -> Sched_queue.Scan)
  in
  let t =
    {
      engine;
      params;
      bus;
      rng;
      sched;
      obs = None;
      busy = false;
      queue;
      kinds = [||];
      addrs = [||];
      sizes = [||];
      tags = [||];
      dones = [||];
      starts = [||];
      arrived = [||];
      free = [||];
      nfree = 0;
      current = -1;
      positioned = Engine.job ignore;
      transferred = Engine.job ignore;
      register = ignore;
      resume = ignore;
      parker = -1;
      done_unparked = false;
      head = 0;
      reads = 0;
      writes = 0;
      sequential_hits = 0;
      blocks_transferred = 0;
      acct = Array.make 7 0.0;
    }
  in
  t.positioned <- Engine.job (fun () -> positioned t);
  t.transferred <- Engine.job (fun () -> transferred t);
  t.register <- (fun key -> t.tags.(t.parker) <- key);
  t.resume <-
    (fun key -> if key = unparked then t.done_unparked <- true else Engine.resume_key engine key);
  t

let check_extent t ~addr ~blocks =
  check_addr t addr;
  if blocks < 1 || addr + blocks > t.params.Params.capacity_blocks then
    invalid_arg "Disk.io: bad block count"

(* File a request in a free slot, and serve it at once if the drive is
   idle. *)
let enqueue t kind ~addr ~blocks ~tag on_done =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let s = t.free.(t.nfree) in
  t.kinds.(s) <- kind;
  t.addrs.(s) <- addr;
  t.sizes.(s) <- blocks;
  t.tags.(s) <- tag;
  t.dones.(s) <- on_done;
  if t.busy then begin
    t.arrived.(s) <- Engine.now t.engine;
    Sched_queue.add t.queue ~addr s
  end
  else begin
    t.busy <- true;
    t.acct.(waited_i) <- 0.0;
    begin_service t s
  end;
  s

let submit t kind ~addr ~blocks ~tag on_done =
  check_extent t ~addr ~blocks;
  ignore (enqueue t kind ~addr ~blocks ~tag on_done)

(* The caller parks once, under its fiber key, which the registrar
   writes over the request's tag, and the completion resumes it inside
   its own event. *)
let io ?(blocks = 1) t kind ~addr =
  check_extent t ~addr ~blocks;
  t.done_unparked <- false;
  let s = enqueue t kind ~addr ~blocks ~tag:unparked t.resume in
  if not t.done_unparked then begin
    t.parker <- s;
    Engine.park_keyed t.engine t.register
  end

let reads t = t.reads

let writes t = t.writes

let sequential_hits t = t.sequential_hits

let blocks_transferred t = t.blocks_transferred

let busy_time t = t.acct.(busy_i)

let total_wait t = t.acct.(wait_i)

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.sequential_hits <- 0;
  t.blocks_transferred <- 0;
  t.acct.(busy_i) <- 0.0;
  t.acct.(wait_i) <- 0.0
