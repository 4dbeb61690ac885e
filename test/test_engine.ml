open Acfc_sim
open Tutil

let clock_starts_at_zero () =
  let e = Engine.create () in
  chk_float "t=0" 0.0 (Engine.now e)

let delay_advances_clock () =
  let finished = ref 0.0 in
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.delay e 1.5;
      Engine.delay e 2.5;
      finished := Engine.now e);
  Engine.run e;
  chk_float "virtual time" 4.0 !finished

let zero_delay_is_immediate () =
  let e = Engine.create () in
  let steps = ref [] in
  Engine.spawn e (fun () ->
      steps := "a" :: !steps;
      Engine.delay e 0.0;
      steps := "b" :: !steps);
  Engine.run e;
  chk_bool "ran to completion" true (List.rev !steps = [ "a"; "b" ])

let negative_delay_rejected () =
  let e = Engine.create () in
  let raised = ref false in
  Engine.spawn e (fun () ->
      match Engine.delay e (-1.0) with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  Engine.run e;
  chk_bool "rejected" true !raised

let event_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  chk_bool "time order" true (List.rev !log = [ 1; 2; 3 ])

let fifo_for_simultaneous_events () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  chk_bool "FIFO ties" true (List.rev !log = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])

let past_scheduling_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun () ->
      match Engine.schedule e ~at:1.0 ignore with
      | () -> Alcotest.fail "scheduled in the past"
      | exception Invalid_argument _ -> ());
  Engine.run e

let spawn_from_fiber () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 1.0;
      Engine.spawn e (fun () ->
          Engine.delay e 1.0;
          log := ("child", Engine.now e) :: !log);
      Engine.delay e 0.5;
      log := ("parent", Engine.now e) :: !log);
  Engine.run e;
  chk_bool "interleaving" true
    (List.rev !log = [ ("parent", 1.5); ("child", 2.0) ])

let suspend_resume () =
  let e = Engine.create () in
  let resume_cell = ref None in
  let finished = ref false in
  Engine.spawn e (fun () ->
      Engine.suspend e (fun resume -> resume_cell := Some resume);
      finished := true);
  Engine.schedule e ~at:7.0 (fun () ->
      match !resume_cell with Some r -> r () | None -> Alcotest.fail "no resume");
  Engine.run e;
  chk_bool "resumed" true !finished

let double_resume_rejected () =
  let e = Engine.create () in
  let resume_cell = ref None in
  Engine.spawn e (fun () -> Engine.suspend e (fun r -> resume_cell := Some r));
  Engine.schedule e ~at:1.0 (fun () ->
      let r = Option.get !resume_cell in
      r ();
      match r () with
      | () -> Alcotest.fail "double resume allowed"
      | exception Invalid_argument _ -> ());
  Engine.run e

let deadlock_detected () =
  let e = Engine.create () in
  Engine.spawn e ~name:"stuck-fiber" (fun () -> Engine.suspend e (fun _ -> ()));
  (match Engine.run e with
  | () -> Alcotest.fail "no deadlock raised"
  | exception Engine.Deadlock names ->
    chk_bool "names the fiber" true
      (String.length names > 0 && String.sub names 0 5 = "stuck"))

let no_deadlock_when_all_finish () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    Engine.spawn e (fun () -> Engine.delay e 1.0)
  done;
  Engine.run e;
  chk_int "no live fibers" 0 (Engine.fiber_count e)

let run_until_stops () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:5.0 (fun () -> log := 5 :: !log);
  Engine.run_until e 3.0;
  chk_bool "only early event" true (!log = [ 1 ]);
  chk_float "clock at horizon" 3.0 (Engine.now e);
  Engine.run e;
  chk_bool "rest after" true (List.rev !log = [ 1; 5 ])

let exceptions_propagate () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.delay e 1.0;
      failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run e)

let events_counted () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> Engine.delay e 1.0);
  Engine.run e;
  (* spawn event + resume event *)
  chk_int "events" 2 (Engine.events_processed e)

let many_fibers () =
  let e = Engine.create () in
  let done_count = ref 0 in
  for i = 1 to 1000 do
    Engine.spawn e (fun () ->
        Engine.delay e (float_of_int (i mod 17) /. 10.0);
        incr done_count)
  done;
  Engine.run e;
  chk_int "all finished" 1000 !done_count

let stale_resume_rejected () =
  let e = Engine.create () in
  let cells = ref [] in
  Engine.spawn e (fun () ->
      Engine.suspend e (fun r -> cells := r :: !cells);
      Engine.suspend e (fun r -> cells := r :: !cells));
  Engine.schedule e ~at:1.0 (fun () ->
      let first = List.hd !cells in
      first ();
      (* The fiber is suspended again; the first thunk is spent. *)
      match first () with
      | () -> Alcotest.fail "stale resume allowed"
      | exception Invalid_argument _ -> List.hd !cells ());
  Engine.run e;
  chk_int "finished" 0 (Engine.fiber_count e)

(* {2 In-place delays} *)

let log_entry e log name = log := (name, Engine.now e) :: !log

let in_place_keeps_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1.0 (fun () -> log_entry e log "event");
  Engine.spawn e (fun () ->
      (* Nothing else is due before 0.5: resumes in place. *)
      Engine.delay e 0.5;
      log_entry e log "half";
      (* Wakes at 1.0, tied with the event scheduled first. *)
      Engine.delay e 0.5;
      log_entry e log "fiber");
  Engine.run e;
  chk_bool "the earlier-scheduled event runs first" true
    (List.rev !log = [ ("half", 0.5); ("event", 1.0); ("fiber", 1.0) ]);
  (* spawn + event + two wake-ups, whichever path they took *)
  chk_int "events" 4 (Engine.events_processed e)

let run_until_holds_back_late_wakeups () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 1.0;
      log_entry e log "first";
      Engine.delay e 2.0;
      log_entry e log "second");
  Engine.run_until e 2.0;
  chk_bool "stopped before the late wake-up" true (!log = [ ("first", 1.0) ]);
  chk_float "clock at horizon" 2.0 (Engine.now e);
  Engine.run_until e 2.5;
  chk_bool "still waiting" true (!log = [ ("first", 1.0) ]);
  Engine.run_until e 10.0;
  chk_bool "resumed at its wake time" true
    (List.rev !log = [ ("first", 1.0); ("second", 3.0) ]);
  chk_float "clock at the later horizon" 10.0 (Engine.now e);
  chk_int "events" 3 (Engine.events_processed e)

let delay_outside_fiber_fails () =
  let e = Engine.create () in
  (* The fiber fails right after resuming in place. *)
  Engine.spawn e (fun () ->
      Engine.delay e 0.5;
      failwith "boom");
  Alcotest.check_raises "fiber failure escapes" (Failure "boom") (fun () -> Engine.run e);
  (match Engine.delay e 1.0 with
  | () -> Alcotest.fail "delay outside any run succeeded"
  | exception Effect.Unhandled _ -> ());
  Engine.schedule e ~at:1.0 (fun () -> Engine.delay e 1.0);
  (match Engine.run e with
  | () -> Alcotest.fail "delay from a callback succeeded"
  | exception Effect.Unhandled _ -> ());
  chk_float "clock untouched" 1.0 (Engine.now e)

let deadlock_names_parked_fibers () =
  let e = Engine.create () in
  let r = Resource.create e ~servers:1 () in
  let iv = Ivar.create e in
  Engine.spawn e ~name:"holder" (fun () ->
      Resource.acquire r;
      Ivar.read iv);
  Engine.spawn e ~name:"b-queued" (fun () -> Resource.acquire r);
  Engine.spawn e ~name:"sleeper" (fun () -> Engine.delay e 5.0);
  Engine.spawn e ~name:"a-queued" (fun () -> Resource.acquire r);
  Engine.spawn e ~name:"c-reader" (fun () -> Ivar.read iv);
  Engine.spawn e ~name:"d-suspended" (fun () -> Engine.suspend e ignore);
  match Engine.run e with
  | () -> Alcotest.fail "no deadlock raised"
  | exception Engine.Deadlock names ->
    check Alcotest.string "sorted names of every blocked fiber"
      "a-queued, b-queued, c-reader, d-suspended, holder" names

(* {2 Timed wake-ups and the next event time} *)

let wake_at_order () =
  let e = Engine.create () in
  let q = Engine.waitq () in
  let log = ref [] in
  Engine.spawn e ~name:"a" (fun () ->
      Engine.park e q;
      log_entry e log "a");
  Engine.spawn e ~name:"b" (fun () ->
      Engine.park e q;
      log_entry e log "b");
  Engine.schedule e ~at:2.0 (fun () -> log_entry e log "older");
  Engine.schedule e ~at:1.0 (fun () ->
      chk_int "both parked" 2 (Engine.waiters q);
      Engine.wake_at e q ~at:2.0;
      chk_int "the oldest left the queue" 1 (Engine.waiters q);
      Engine.schedule e ~at:2.0 (fun () -> log_entry e log "younger");
      Engine.wake_at e q ~at:3.0);
  Engine.run e;
  chk_bool "oldest first, FIFO among same-time events" true
    (List.rev !log = [ ("older", 2.0); ("a", 2.0); ("younger", 2.0); ("b", 3.0) ]);
  (* two spawns, three callbacks, two wake-ups *)
  chk_int "one event per wake-up" 7 (Engine.events_processed e)

let wake_at_rejects () =
  let e = Engine.create () in
  let q = Engine.waitq () in
  Alcotest.check_raises "empty queue"
    (Invalid_argument "Engine.wake_at: no fiber is parked") (fun () ->
      Engine.wake_at e q ~at:1.0);
  Engine.spawn e ~name:"parked" (fun () -> Engine.park e q);
  Engine.schedule e ~at:5.0 (fun () ->
      Alcotest.check_raises "time in the past"
        (Invalid_argument "Engine.wake_at: time 1 is in the past (now 5)") (fun () ->
          Engine.wake_at e q ~at:1.0);
      chk_int "a refused wake-up leaves the fiber parked" 1 (Engine.waiters q);
      Engine.wake_at e q ~at:5.0);
  Engine.run e;
  chk_int "woken at the present" 0 (Engine.fiber_count e)

let deadlock_names_unwoken_parker () =
  let e = Engine.create () in
  let q = Engine.waitq () in
  Engine.spawn e ~name:"woken" (fun () -> Engine.park e q);
  Engine.spawn e ~name:"orphan" (fun () -> Engine.park e q);
  Engine.schedule e ~at:1.0 (fun () -> Engine.wake_at e q ~at:2.0);
  match Engine.run e with
  | () -> Alcotest.fail "no deadlock raised"
  | exception Engine.Deadlock names ->
    check Alcotest.string "only the fiber nobody wakes" "orphan" names

let next_event_time_reads () =
  let e = Engine.create () in
  let next () = Engine.next_event_time e in
  chk_bool "infinity when idle" true (next () = Float.infinity);
  Engine.schedule e ~at:2.0 ignore;
  chk_float "the heap top" 2.0 (next ());
  (* Due now with nothing earlier queued: a ready-ring entry. *)
  Engine.schedule e ~at:0.0 ignore;
  chk_float "now, for a ring entry" 0.0 (next ());
  Engine.run_until e 1.0;
  chk_float "the heap top again" 2.0 (next ());
  Engine.schedule e ~at:1.0 ignore;
  chk_float "now, for a ring entry past the last event" 1.0 (next ());
  Engine.run e;
  chk_bool "infinity when drained" true (next () = Float.infinity)

(* {2 Blocked-fiber bookkeeping}

   Fibers start at random times, park on several wait queues, suspend
   and sleep; a controller wakes every live queue and resumes every
   pending suspension once per round. A random subset ends parked on a
   queue nobody wakes, or suspended with its resume dropped: the
   {!Engine.Deadlock} payload must be exactly their sorted names. Ids
   are reused as early fibers finish, and every resume thunk used once
   must afterwards be rejected as stale. *)

type block_step = Park_on of int | Suspend_once | Nap

type ending = Finishes | Stuck_parked of int | Stuck_suspended

let blocking_gen =
  let open QCheck2.Gen in
  let step =
    oneof [ map (fun q -> Park_on q) (int_range 0 2); pure Suspend_once; pure Nap ]
  in
  let ending =
    oneof [ pure Finishes; map (fun q -> Stuck_parked q) (int_range 0 1); pure Stuck_suspended ]
  in
  list_size (int_range 1 12) (triple (int_range 0 3) (list_size (int_range 0 4) step) ending)

let deadlock_names_match_model =
  qcheck "deadlock names exactly the fibers left blocked" ~count:300 blocking_gen
    (fun specs ->
      let e = Engine.create () in
      let live = Array.init 3 (fun _ -> Engine.waitq ()) in
      let never = Array.init 2 (fun _ -> Engine.waitq ()) in
      let pending = ref [] and spent = ref [] in
      let name i = Printf.sprintf "f%02d" i in
      List.iteri
        (fun i (start, steps, ending) ->
          Engine.schedule e ~at:(float_of_int start) (fun () ->
              Engine.spawn e ~name:(name i) (fun () ->
                  List.iter
                    (function
                      | Park_on q -> Engine.park e live.(q)
                      | Suspend_once -> Engine.suspend e (fun r -> pending := r :: !pending)
                      | Nap -> Engine.delay e 0.5)
                    steps;
                  match ending with
                  | Finishes -> ()
                  | Stuck_parked q -> Engine.park e never.(q)
                  | Stuck_suspended -> Engine.suspend e ignore)))
        specs;
      for round = 0 to 12 do
        Engine.schedule e ~at:(float_of_int round +. 0.75) (fun () ->
            Array.iter (Engine.wake_all e) live;
            let due = List.rev !pending in
            pending := [];
            List.iter
              (fun r ->
                r ();
                spent := r :: !spent)
              due)
      done;
      let expected =
        List.concat
          (List.mapi (fun i (_, _, ending) -> if ending = Finishes then [] else [ name i ]) specs)
      in
      let reported =
        match Engine.run e with
        | () -> []
        | exception Engine.Deadlock names -> String.split_on_char ',' names |> List.map String.trim
      in
      let stale_rejected r =
        match r () with
        | () -> false
        | exception Invalid_argument msg -> msg = "Engine: fiber resumed twice"
      in
      reported = List.sort compare expected && List.for_all stale_rejected !spent)

(* {2 Against a list-based reference scheduler}

   The same semantics with none of the engine's machinery: one sorted
   list of (time, seq, callback), every wake-up queued, resources,
   ivars and wait queues as plain FIFOs of resume closures. A timed
   wake-up ([wake_at]) schedules the oldest resume closure at its
   time. *)

module Ref_sched = struct
  type t = {
    mutable now : float;
    mutable seq : int;
    mutable queue : (float * int * (unit -> unit)) list;
    mutable processed : int;
  }

  type _ Effect.t += Block : ((unit -> unit) -> unit) -> unit Effect.t

  let create () = { now = 0.0; seq = 0; queue = []; processed = 0 }

  let schedule t at f =
    t.seq <- t.seq + 1;
    let ev = (at, t.seq, f) in
    let rec insert = function
      | ((at', _, _) as x) :: rest when at' <= at -> x :: insert rest
      | l -> ev :: l
    in
    t.queue <- insert t.queue

  let spawn t f =
    schedule t t.now (fun () ->
        Effect.Deep.match_with f ()
          {
            retc = Fun.id;
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Block register ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      register (fun () -> Effect.Deep.continue k ()))
                | _ -> None);
          })

  let block register = Effect.perform (Block register)

  let delay t dt = if dt > 0.0 then block (fun resume -> schedule t (t.now +. dt) resume)

  let rec run t =
    match t.queue with
    | [] -> ()
    | (at, _, f) :: rest ->
      t.queue <- rest;
      t.now <- at;
      t.processed <- t.processed + 1;
      f ();
      run t

  type res = { servers : int; mutable held : int; waiters : (unit -> unit) Queue.t }

  let use t r service =
    if r.held < r.servers && Queue.is_empty r.waiters then r.held <- r.held + 1
    else block (fun resume -> Queue.push resume r.waiters);
    delay t service;
    match Queue.take_opt r.waiters with
    | Some w -> schedule t t.now w
    | None -> r.held <- r.held - 1

  type ivar = { mutable filled : bool; mutable readers : (unit -> unit) list }

  let fill t iv =
    if not iv.filled then begin
      iv.filled <- true;
      List.iter (fun w -> schedule t t.now w) (List.rev iv.readers);
      iv.readers <- []
    end

  let read iv = if not iv.filled then block (fun resume -> iv.readers <- resume :: iv.readers)

  let park q = block (fun resume -> Queue.push resume q)

  let wake_at t q at = Option.iter (fun w -> schedule t at w) (Queue.take_opt q)
end

type script_op =
  | Sleep of int
  | Use of int * int
  | Fill of int
  | Read of int
  | Park of int
  | Wake_at of int * int

(* Quarter-second quanta keep float times exact and ties frequent. *)
let quanta k = 0.25 *. float_of_int k

let script_gen =
  let open QCheck2.Gen in
  let op =
    oneof
      [
        map (fun k -> Sleep k) (int_range 0 4);
        map2 (fun r k -> Use (r, k)) (int_range 0 1) (int_range 0 3);
        map (fun i -> Fill i) (int_range 0 1);
        map (fun i -> Read i) (int_range 0 1);
        map (fun q -> Park q) (int_range 0 1);
        map2 (fun q k -> Wake_at (q, k)) (int_range 0 1) (int_range 0 4);
      ]
  in
  pair
    (pair (int_range 1 2) (int_range 1 2))
    (list_size (int_range 1 5) (list_size (int_range 0 8) op))

(* A closing fiber fills any ivar nobody filled and wakes every parked
   fiber, after which parking is a no-op, so every run ends. *)
let closing_time = 50.0

let run_engine ~stepped ((s0, s1), scripts) =
  let e = Engine.create () in
  let res = [| Resource.create e ~servers:s0 (); Resource.create e ~servers:s1 () |] in
  let ivs = [| Ivar.create e; Ivar.create e |] in
  let qs = [| Engine.waitq (); Engine.waitq () |] in
  let closed = ref false in
  let fill i = if not (Ivar.is_filled ivs.(i)) then Ivar.fill ivs.(i) () in
  let log = ref [] in
  List.iteri
    (fun f script ->
      Engine.spawn e (fun () ->
          List.iteri
            (fun j op ->
              (match op with
              | Sleep k -> Engine.delay e (quanta k)
              | Use (r, k) -> Resource.use res.(r) ~service:(quanta k)
              | Fill i -> fill i
              | Read i -> Ivar.read ivs.(i)
              | Park q -> if not !closed then Engine.park e qs.(q)
              | Wake_at (q, k) ->
                if Engine.waiters qs.(q) > 0 then
                  Engine.wake_at e qs.(q) ~at:(Engine.now e +. quanta k));
              log := (f, j, Engine.now e) :: !log)
            script))
    scripts;
  Engine.spawn e (fun () ->
      Engine.delay e closing_time;
      fill 0;
      fill 1;
      closed := true;
      Array.iter (Engine.wake_all e) qs);
  if stepped then begin
    let horizon = ref 0.0 in
    while Engine.next_event_time e < Float.infinity do
      horizon := !horizon +. 0.3;
      Engine.run_until e !horizon
    done
  end
  else Engine.run e;
  (List.rev !log, Engine.events_processed e)

let run_reference ((s0, s1), scripts) =
  let module R = Ref_sched in
  let t = R.create () in
  let res =
    [|
      { R.servers = s0; held = 0; waiters = Queue.create () };
      { R.servers = s1; held = 0; waiters = Queue.create () };
    |]
  in
  let ivs = [| { R.filled = false; readers = [] }; { R.filled = false; readers = [] } |] in
  let qs = [| Queue.create (); Queue.create () |] in
  let closed = ref false in
  let log = ref [] in
  List.iteri
    (fun f script ->
      R.spawn t (fun () ->
          List.iteri
            (fun j op ->
              (match op with
              | Sleep k -> R.delay t (quanta k)
              | Use (r, k) -> R.use t res.(r) (quanta k)
              | Fill i -> R.fill t ivs.(i)
              | Read i -> R.read ivs.(i)
              | Park q -> if not !closed then R.park qs.(q)
              | Wake_at (q, k) -> R.wake_at t qs.(q) (t.R.now +. quanta k));
              log := (f, j, t.R.now) :: !log)
            script))
    scripts;
  R.spawn t (fun () ->
      R.delay t closing_time;
      R.fill t ivs.(0);
      R.fill t ivs.(1);
      closed := true;
      Array.iter (fun q -> Queue.iter (fun w -> R.schedule t t.R.now w) q; Queue.clear q) qs);
  R.run t;
  (List.rev !log, t.R.processed)

let matches_reference =
  qcheck "fibers, resources and ivars match a list-based scheduler" ~count:300
    script_gen (fun case ->
      let expected = run_reference case in
      run_engine ~stepped:false case = expected && run_engine ~stepped:true case = expected)

let suites =
  [
    ( "engine",
      [
        case "clock starts at zero" clock_starts_at_zero;
        case "delay advances clock" delay_advances_clock;
        case "zero delay" zero_delay_is_immediate;
        case "negative delay" negative_delay_rejected;
        case "event time order" event_time_order;
        case "FIFO ties" fifo_for_simultaneous_events;
        case "no scheduling in the past" past_scheduling_rejected;
        case "spawn from fiber" spawn_from_fiber;
        case "suspend/resume" suspend_resume;
        case "double resume rejected" double_resume_rejected;
        case "deadlock detection" deadlock_detected;
        case "clean termination" no_deadlock_when_all_finish;
        case "run_until" run_until_stops;
        case "exception propagation" exceptions_propagate;
        case "event counting" events_counted;
        case "1000 fibers" many_fibers;
        case "stale resume rejected" stale_resume_rejected;
        case "in-place delay keeps FIFO ties" in_place_keeps_fifo_ties;
        case "run_until holds back late wake-ups" run_until_holds_back_late_wakeups;
        case "delay outside a fiber fails" delay_outside_fiber_fails;
        case "deadlock names parked fibers" deadlock_names_parked_fibers;
        case "wake_at: oldest first, after same-time events" wake_at_order;
        case "wake_at rejects an empty queue and the past" wake_at_rejects;
        case "deadlock names a parker nobody wakes" deadlock_names_unwoken_parker;
        case "next_event_time: infinity, ring, heap top" next_event_time_reads;
        deadlock_names_match_model;
        matches_reference;
      ] );
  ]
