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

let keyed_park_resume () =
  let e = Engine.create () in
  let key = ref (-1) in
  let finished = ref 0.0 in
  Engine.spawn e (fun () ->
      Engine.park_keyed e (fun k -> key := k);
      finished := Engine.now e);
  Engine.schedule e ~at:7.0 (fun () -> Engine.resume_key e !key);
  Engine.run e;
  chk_float "resumed at the callback" 7.0 !finished;
  (* spawn + callback: the fiber goes on inside the callback's event *)
  chk_int "no event of its own" 2 (Engine.events_processed e)

(* Resuming a key nobody is parked under raises and runs nothing: not
   while its fiber sleeps, not a second time for the same park, not for
   an id never issued. Nor may a fiber resume one. *)
let empty_key_resume_rejected () =
  let e = Engine.create () in
  let key = ref (-1) in
  let rejected ?(msg = "Engine.resume_key: no fiber is parked under this key") k =
    match Engine.resume_key e k with
    | () -> Alcotest.failf "resumed empty key %d" k
    | exception Invalid_argument m -> check Alcotest.string "message" msg m
  in
  rejected 0;
  Engine.spawn e (fun () ->
      Engine.park_keyed e (fun k -> key := k);
      Engine.delay e 0.5;
      Engine.park_keyed e ignore);
  Engine.spawn e (fun () -> rejected ~msg:"Engine.resume_key: called from a fiber" !key);
  Engine.schedule e ~at:0.25 (fun () -> Engine.resume_key e !key);
  Engine.schedule e ~at:0.5 (fun () -> rejected !key);
  Engine.schedule e ~at:1.0 (fun () ->
      rejected (-1);
      rejected 1_000;
      Engine.resume_key e !key);
  Engine.schedule e ~at:1.0 (fun () -> rejected !key);
  Engine.run e;
  (* two spawns + four callbacks + the sleep: no event for a refusal or
     a resume *)
  chk_int "events" 7 (Engine.events_processed e);
  chk_int "finished" 0 (Engine.fiber_count e)

(* A fiber resumed inside a job may take its next delay in place when
   nothing else is due first, and queues it when something is. Both
   wake where a queued wake-up would. *)
let resumed_fiber_delays () =
  let run ~rival =
    let e = Engine.create () in
    let key = ref (-1) and log = ref [] in
    Engine.spawn e (fun () ->
        Engine.park_keyed e (fun k -> key := k);
        log := ("resumed", Engine.now e) :: !log;
        Engine.delay e 1.0;
        log := ("woke", Engine.now e) :: !log;
        Engine.delay e 1.0;
        log := ("done", Engine.now e) :: !log);
    if rival then
      Engine.schedule e ~at:3.0 (fun () -> log := ("rival", Engine.now e) :: !log);
    Engine.schedule e ~at:2.0 (fun () -> Engine.resume_key e !key);
    Engine.run e;
    (List.rev !log, Engine.events_processed e)
  in
  let log, events = run ~rival:false in
  chk_bool "in place" true (log = [ ("resumed", 2.0); ("woke", 3.0); ("done", 4.0) ]);
  chk_int "spawn + callback + two wake-ups" 4 events;
  let log, events = run ~rival:true in
  chk_bool "queued behind the older event" true
    (log = [ ("resumed", 2.0); ("rival", 3.0); ("woke", 3.0); ("done", 4.0) ]);
  chk_int "one more event" 5 events

let deadlock_detected () =
  let e = Engine.create () in
  Engine.spawn e ~name:"stuck-fiber" (fun () -> Engine.park_keyed e ignore);
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

(* Keys are fiber ids: distinct among live fibers, and an id comes back
   into use once its fiber has finished. *)
let keys_are_fiber_ids () =
  let e = Engine.create () in
  let keys = ref [] in
  let parker () = Engine.park_keyed e (fun k -> keys := k :: !keys) in
  let resume_at at k = Engine.schedule e ~at (fun () -> Engine.resume_key e k) in
  for _ = 1 to 3 do
    Engine.spawn e parker
  done;
  Engine.schedule e ~at:1.0 (fun () ->
      let live = List.sort_uniq compare !keys in
      chk_int "distinct while live" 3 (List.length live);
      List.iter (resume_at 1.0) live);
  let reused = ref (-1) in
  Engine.schedule e ~at:2.0 (fun () -> Engine.spawn e parker);
  Engine.schedule e ~at:3.0 (fun () ->
      reused := List.hd !keys;
      Engine.resume_key e !reused);
  Engine.run e;
  chk_bool "an id is reused" true (List.mem !reused (List.tl !keys));
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
  let q = Engine.waitq () in
  let iv = Ivar.create e in
  let r = Resource.create e () in
  Engine.spawn e ~name:"holder" (fun () ->
      Resource.use r ~service:1.0;
      Ivar.read iv);
  Engine.spawn e ~name:"b-queued" (fun () -> Engine.park e q);
  Engine.spawn e ~name:"sleeper" (fun () -> Engine.delay e 5.0);
  Engine.spawn e ~name:"a-queued" (fun () -> Engine.park e q);
  Engine.spawn e ~name:"c-reader" (fun () -> Ivar.read iv);
  Engine.spawn e ~name:"d-keyed" (fun () -> Engine.park_keyed e ignore);
  Engine.spawn e ~name:"user" (fun () -> Resource.use r ~service:1.0);
  match Engine.run e with
  | () -> Alcotest.fail "no deadlock raised"
  | exception Engine.Deadlock names ->
    check Alcotest.string "sorted names of every blocked fiber"
      "a-queued, b-queued, c-reader, d-keyed, holder" names

(* {2 Prebuilt jobs and the next event time} *)

let schedule_job_order () =
  let e = Engine.create () in
  let log = ref [] in
  let a = Engine.job (fun () -> log_entry e log "a") in
  let b = Engine.job (fun () -> log_entry e log "b") in
  Engine.schedule e ~at:2.0 (fun () -> log_entry e log "older");
  Engine.schedule e ~at:1.0 (fun () ->
      Engine.schedule_job e ~at:2.0 a;
      Engine.schedule e ~at:2.0 (fun () -> log_entry e log "younger");
      Engine.schedule_job e ~at:3.0 b;
      (* One job may be pending more than once. *)
      Engine.schedule_job e ~at:3.0 a;
      (* Due now: behind the callback that scheduled it, nothing else. *)
      Engine.schedule_job e ~at:1.0 b);
  Engine.run e;
  chk_bool "FIFO among same-time events, in scheduling order" true
    (List.rev !log
    = [ ("b", 1.0); ("older", 2.0); ("a", 2.0); ("younger", 2.0); ("b", 3.0); ("a", 3.0) ]);
  (* three callbacks, four job runs *)
  chk_int "one event per scheduled job" 7 (Engine.events_processed e)

let schedule_job_rejects_the_past () =
  let e = Engine.create () in
  let runs = ref 0 in
  let j = Engine.job (fun () -> incr runs) in
  Engine.schedule e ~at:5.0 (fun () ->
      Alcotest.check_raises "time in the past"
        (Invalid_argument "Engine.schedule: time 1 is in the past (now 5)") (fun () ->
          Engine.schedule_job e ~at:1.0 j);
      chk_float "a refused job queues nothing" Float.infinity (Engine.next_event_time e);
      Engine.schedule_job e ~at:5.0 j);
  Engine.run e;
  chk_int "scheduled at the present, run once" 1 !runs

(* A callback that reschedules its own job at [now +. dt] is the fiber
   that calls [delay dt]: same clock readings, same event count, in
   place or not. The fiber's first delay resumes in place; the tiny one
   cannot move the clock and still costs its event. *)
let callback_matches_fiber_delays () =
  let delays = [ 0.5; 0.0; 1e-20; 0.25; 0.5 ] in
  let run ~as_callback =
    let e = Engine.create () in
    let log = ref [] in
    Engine.schedule e ~at:1.0 (fun () -> log_entry e log "event");
    (if as_callback then begin
       let rest = ref delays and self = ref (Engine.job ignore) in
       let rec go () =
         log_entry e log "step";
         match !rest with
         | [] -> ()
         | dt :: more ->
           rest := more;
           if dt = 0.0 then go () else Engine.schedule_job e ~at:(Engine.now e +. dt) !self
       in
       self := Engine.job go;
       Engine.schedule_job e ~at:0.0 !self
     end
     else
       Engine.spawn e (fun () ->
           log_entry e log "step";
           List.iter
             (fun dt ->
               Engine.delay e dt;
               log_entry e log "step")
             delays));
    Engine.run e;
    (List.rev !log, Engine.events_processed e)
  in
  let fiber = run ~as_callback:false in
  chk_bool "same log and events" true (run ~as_callback:true = fiber);
  chk_int "start, event, four wakes" 6 (snd fiber)

let deadlock_names_unwoken_parker () =
  let e = Engine.create () in
  let q = Engine.waitq () in
  Engine.spawn e ~name:"woken" (fun () -> Engine.park e q);
  Engine.spawn e ~name:"orphan" (fun () -> Engine.park e q);
  Engine.schedule e ~at:2.0 (fun () -> ignore (Engine.wake_one e q));
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

   Fibers start at random times, park on several wait queues, park
   under their keys and sleep; a controller wakes every live queue and
   every key registered for a wake once per round. A random subset ends
   parked on a queue nobody wakes, or under a key nobody registered:
   the {!Engine.Deadlock} payload must be exactly their sorted names.
   Each key is resumed inside a callback of its own, queued at the
   round's instant, where a scheduled wake-up would have run. Ids are
   reused as early fibers finish, and a key resumed once must refuse a
   second resume until a fiber parks under it again. *)

type block_step = Park_on of int | Keyed_once | Nap

type ending = Finishes | Stuck_parked of int | Stuck_keyed

let blocking_gen =
  let open QCheck2.Gen in
  let step =
    oneof [ map (fun q -> Park_on q) (int_range 0 2); pure Keyed_once; pure Nap ]
  in
  let ending =
    oneof [ pure Finishes; map (fun q -> Stuck_parked q) (int_range 0 1); pure Stuck_keyed ]
  in
  list_size (int_range 1 12) (triple (int_range 0 3) (list_size (int_range 0 4) step) ending)

let deadlock_names_match_model =
  qcheck "deadlock names exactly the fibers left blocked" ~count:300 blocking_gen
    (fun specs ->
      let e = Engine.create () in
      let live = Array.init 3 (fun _ -> Engine.waitq ()) in
      let never = Array.init 2 (fun _ -> Engine.waitq ()) in
      let pending = ref [] and stuck = ref [] and refusals_ok = ref true in
      let name i = Printf.sprintf "f%02d" i in
      List.iteri
        (fun i (start, steps, ending) ->
          Engine.schedule e ~at:(float_of_int start) (fun () ->
              Engine.spawn e ~name:(name i) (fun () ->
                  List.iter
                    (function
                      | Park_on q -> Engine.park e live.(q)
                      | Keyed_once -> Engine.park_keyed e (fun k -> pending := k :: !pending)
                      | Nap -> Engine.delay e 0.5)
                    steps;
                  match ending with
                  | Finishes -> ()
                  | Stuck_parked q -> Engine.park e never.(q)
                  | Stuck_keyed -> Engine.park_keyed e (fun k -> stuck := k :: !stuck))))
        specs;
      for round = 0 to 12 do
        Engine.schedule e ~at:(float_of_int round +. 0.75) (fun () ->
            Array.iter (Engine.wake_all e) live;
            let due = List.rev !pending in
            pending := [];
            let now = Engine.now e in
            List.iter
              (fun key -> Engine.schedule e ~at:now (fun () -> Engine.resume_key e key))
              due;
            Engine.schedule e ~at:now (fun () ->
                List.iter
                  (fun key ->
                    if not (List.mem key !pending || List.mem key !stuck) then
                      match Engine.resume_key e key with
                      | () -> refusals_ok := false
                      | exception Invalid_argument _ -> ())
                  due))
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
      reported = List.sort compare expected && !refusals_ok)

(* {2 Against a list-based reference scheduler}

   The same semantics with none of the engine's machinery: one sorted
   list of (time, seq, callback), every wake-up queued, ivars and wait
   queues as plain FIFOs of resume closures, and a resource as a
   one-server calendar: a use starts at the later of now and the end of
   the last booking and sleeps to its finish.

   Besides the fibers, callback actors run on the engine as jobs that
   reschedule themselves ({!Engine.schedule_job}) and are modelled here
   as fibers that {!delay}: that a rescheduled callback is a delaying
   fiber, event for event, is the property under test. In the stepped
   run, an actor's request waits for a coordinator that, between
   [run_until] steps, schedules the actor's job at a response time. *)

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

  let rec run_until t horizon =
    match t.queue with
    | (at, _, f) :: rest when at <= horizon ->
      t.queue <- rest;
      t.now <- at;
      t.processed <- t.processed + 1;
      f ();
      run_until t horizon
    | _ -> if t.now < horizon then t.now <- horizon

  let run t = run_until t Float.infinity

  type res = { mutable free : float }

  let use t r service =
    let start = if t.now >= r.free then t.now else r.free in
    r.free <- start +. service;
    let finish = r.free in
    if finish > t.now then block (fun resume -> schedule t finish resume)

  type ivar = { mutable filled : bool; mutable readers : (unit -> unit) list }

  let fill t iv =
    if not iv.filled then begin
      iv.filled <- true;
      List.iter (fun w -> schedule t t.now w) (List.rev iv.readers);
      iv.readers <- []
    end

  let read iv = if not iv.filled then block (fun resume -> iv.readers <- resume :: iv.readers)

  let park q = block (fun resume -> Queue.push resume q)

  let wake t q = Option.iter (fun w -> schedule t t.now w) (Queue.take_opt q)
end

(* [Keyed k] parks under the fiber's key, and its registrar schedules a
   callback [k] quanta later that resumes the key inside its own event:
   the reference blocks with a resume scheduled there, as a delay does
   (but even for [k = 0]). What the resumed fiber does next may go in
   place or not. *)
type script_op =
  | Sleep of int
  | Use of int * int
  | Fill of int
  | Read of int
  | Park of int
  | Wake of int
  | Keyed of int

(* What an actor waits for after each step: [Tick 0] is a zero delay
   (no event), [Tiny] a delay too small to move a clock past 0, and
   [Request k] a response [k] quanta after the coordinator's next
   step (in the unstepped run, where no coordinator runs, a zero
   delay). *)
type actor_op = Tick of int | Tiny | Request of int

(* Quarter-second quanta keep float times exact and ties frequent. *)
let quanta k = 0.25 *. float_of_int k

let tiny = 1e-20

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
        map (fun q -> Wake q) (int_range 0 1);
        map (fun k -> Keyed k) (int_range 0 3);
      ]
  in
  let actor_op =
    oneof
      [
        map (fun k -> Tick k) (int_range 0 4);
        pure Tiny;
        map (fun k -> Request k) (int_range 0 3);
      ]
  in
  pair
    (list_size (int_range 1 5) (list_size (int_range 0 8) op))
    (list_size (int_range 0 3) (list_size (int_range 0 8) actor_op))

(* A closing fiber fills any ivar nobody filled and wakes every parked
   fiber, after which parking is a no-op, so every run ends. *)
let closing_time = 50.0

(* The stepped runs' horizons: 0.3, 0.6, ... *)
let step_length = 0.3

(* Actor [a]'s job: it logs each step as [(first_actor + a, j, now)]
   once the step's wait ends, as a fiber logs its ops. *)
let actor_job e ~log ~outbox ~serve jobs ~first_actor a ops =
  let ops = Array.of_list ops in
  let pos = ref 0 and waiting = ref false in
  Engine.job (fun () ->
      if !waiting then begin
        waiting := false;
        log := (first_actor + a, !pos - 1, Engine.now e) :: !log
      end;
      while (not !waiting) && !pos < Array.length ops do
        let j = !pos in
        incr pos;
        let wait_for dt =
          Engine.schedule_job e ~at:(Engine.now e +. dt) jobs.(a);
          waiting := true
        in
        (match ops.(j) with
        | Tick k -> if k > 0 then wait_for (quanta k)
        | Tiny -> wait_for tiny
        | Request k ->
          if serve then begin
            Queue.push (a, k) outbox;
            waiting := true
          end);
        if not !waiting then log := (first_actor + a, j, Engine.now e) :: !log
      done)

let run_engine ~stepped (scripts, actors) =
  let e = Engine.create () in
  let res = [| Resource.create e (); Resource.create e () |] in
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
              | Wake q -> ignore (Engine.wake_one e qs.(q))
              | Keyed k ->
                Engine.park_keyed e (fun key ->
                    Engine.schedule e ~at:(Engine.now e +. quanta k) (fun () ->
                        Engine.resume_key e key)));
              log := (f, j, Engine.now e) :: !log)
            script))
    scripts;
  let outbox = Queue.create () in
  let jobs = Array.make (List.length actors) (Engine.job ignore) in
  List.iteri
    (fun a ops ->
      jobs.(a) <-
        actor_job e ~log ~outbox ~serve:stepped jobs ~first_actor:(List.length scripts) a
          ops)
    actors;
  Array.iter (Engine.schedule_job e ~at:0.0) jobs;
  Engine.spawn e (fun () ->
      Engine.delay e closing_time;
      fill 0;
      fill 1;
      closed := true;
      Array.iter (Engine.wake_all e) qs);
  if stepped then begin
    let horizon = ref 0.0 in
    while Engine.next_event_time e < Float.infinity || not (Queue.is_empty outbox) do
      horizon := !horizon +. step_length;
      Engine.run_until e !horizon;
      (* The coordinator, outside the run. *)
      Queue.iter (fun (a, k) -> Engine.schedule_job e ~at:(!horizon +. quanta k) jobs.(a)) outbox;
      Queue.clear outbox
    done
  end
  else Engine.run e;
  (List.rev !log, Engine.events_processed e)

let run_reference ~stepped (scripts, actors) =
  let module R = Ref_sched in
  let t = R.create () in
  let res = [| { R.free = 0.0 }; { R.free = 0.0 } |] in
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
              | Wake q -> R.wake t qs.(q)
              | Keyed k -> R.block (fun resume -> R.schedule t (t.R.now +. quanta k) resume));
              log := (f, j, t.R.now) :: !log)
            script))
    scripts;
  let outbox = Queue.create () in
  List.iteri
    (fun a ops ->
      R.spawn t (fun () ->
          List.iteri
            (fun j op ->
              (match op with
              | Tick k -> R.delay t (quanta k)
              | Tiny -> R.delay t tiny
              | Request k ->
                if stepped then R.block (fun resume -> Queue.push (resume, k) outbox));
              log := (List.length scripts + a, j, t.R.now) :: !log)
            ops))
    actors;
  R.spawn t (fun () ->
      R.delay t closing_time;
      R.fill t ivs.(0);
      R.fill t ivs.(1);
      closed := true;
      Array.iter (fun q -> Queue.iter (fun w -> R.schedule t t.R.now w) q; Queue.clear q) qs);
  if stepped then begin
    let horizon = ref 0.0 in
    while (match t.R.queue with [] -> false | _ :: _ -> true) || not (Queue.is_empty outbox) do
      horizon := !horizon +. step_length;
      R.run_until t !horizon;
      Queue.iter (fun (resume, k) -> R.schedule t (!horizon +. quanta k) resume) outbox;
      Queue.clear outbox
    done
  end
  else R.run t;
  (List.rev !log, t.R.processed)

let matches_reference =
  qcheck "fibers, keyed resumes, resources and ivars match a list-based scheduler" ~count:300
    script_gen (fun case ->
      run_engine ~stepped:false case = run_reference ~stepped:false case
      && run_engine ~stepped:true case = run_reference ~stepped:true case)

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
        case "keyed park/resume" keyed_park_resume;
        case "empty key resume rejected" empty_key_resume_rejected;
        case "a resumed fiber delays in place or queued" resumed_fiber_delays;
        case "deadlock detection" deadlock_detected;
        case "clean termination" no_deadlock_when_all_finish;
        case "run_until" run_until_stops;
        case "exception propagation" exceptions_propagate;
        case "event counting" events_counted;
        case "1000 fibers" many_fibers;
        case "keys are fiber ids" keys_are_fiber_ids;
        case "in-place delay keeps FIFO ties" in_place_keeps_fifo_ties;
        case "run_until holds back late wake-ups" run_until_holds_back_late_wakeups;
        case "delay outside a fiber fails" delay_outside_fiber_fails;
        case "deadlock names parked fibers" deadlock_names_parked_fibers;
        case "schedule_job: FIFO after same-time events" schedule_job_order;
        case "schedule_job rejects the past" schedule_job_rejects_the_past;
        case "a rescheduled callback matches a fiber's delays" callback_matches_fiber_delays;
        case "deadlock names a parker nobody wakes" deadlock_names_unwoken_parker;
        case "next_event_time: infinity, ring, heap top" next_event_time_reads;
        deadlock_names_match_model;
        matches_reference;
      ] );
  ]
