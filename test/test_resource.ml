open Acfc_sim
open Tutil

let single_server_serialises () =
  let e = Engine.create () in
  let r = Resource.create e () in
  let finish = Array.make 3 0.0 in
  for i = 0 to 2 do
    Engine.spawn e (fun () ->
        Resource.use r ~service:1.0;
        finish.(i) <- Engine.now e)
  done;
  Engine.run e;
  chk_float "first" 1.0 finish.(0);
  chk_float "second" 2.0 finish.(1);
  chk_float "third" 3.0 finish.(2)

let fifo_order () =
  let e = Engine.create () in
  let r = Resource.create e () in
  let order = ref [] in
  for i = 0 to 4 do
    Engine.spawn e (fun () ->
        (* Stagger arrivals so the queue order is unambiguous. *)
        Engine.delay e (float_of_int i *. 0.01);
        Resource.use r ~service:1.0;
        order := i :: !order)
  done;
  Engine.run e;
  chk_bool "served FIFO" true (List.rev !order = [ 0; 1; 2; 3; 4 ])

let stats_busy_and_wait () =
  let e = Engine.create () in
  let r = Resource.create e () in
  for _ = 1 to 2 do
    Engine.spawn e (fun () -> Resource.use r ~service:2.0)
  done;
  Engine.run e;
  chk_float "busy integral" 4.0 (Resource.busy_time r);
  (* Second fiber waited from 0 to 2. *)
  chk_float "total wait" 2.0 (Resource.total_wait r)

(* A contended use books its slot on arrival and sleeps straight to its
   finish: one event per use, none for a handoff. *)
let one_event_per_use () =
  let e = Engine.create () in
  let r = Resource.create e () in
  for _ = 1 to 3 do
    Engine.spawn e (fun () -> Resource.use r ~service:1.0)
  done;
  Engine.run e;
  (* three spawns + three wake-ups *)
  chk_int "events" 6 (Engine.events_processed e)

(* Read mid-run, [queue_length] counts the reservations whose start is
   still ahead, and [served] the ones whose start has come. *)
let queue_length_counts_unstarted () =
  let e = Engine.create () in
  let r = Resource.create e () in
  for _ = 1 to 4 do
    Engine.spawn e (fun () -> Resource.use r ~service:1.0)
  done;
  let seen = ref [] in
  List.iter
    (fun at ->
      Engine.schedule e ~at (fun () ->
          seen := (at, Resource.queue_length r, Resource.served r) :: !seen))
    [ 0.5; 1.5; 2.5; 3.5; 4.5 ];
  Engine.run e;
  check
    Alcotest.(list (triple (float 0.0) int int))
    "(time, not yet started, started)"
    [ (0.5, 3, 1); (1.5, 2, 2); (2.5, 1, 3); (3.5, 0, 4); (4.5, 0, 4) ]
    (List.rev !seen)

(* A refused service reserves nothing: no statistic moves, and the next
   valid use starts where it would have. *)
let bad_service_rejected () =
  let e = Engine.create () in
  let r = Resource.create e () in
  let finish = ref 0.0 in
  Engine.spawn e (fun () -> Resource.use r ~service:1.0);
  Engine.spawn e (fun () ->
      Engine.delay e 0.25;
      let stats () =
        (Resource.served r, Resource.queue_length r, Resource.total_wait r, Resource.busy_time r)
      in
      let before = stats () in
      List.iter
        (fun service ->
          match Resource.use r ~service with
          | () -> Alcotest.failf "service %g accepted" service
          | exception Invalid_argument msg ->
            check Alcotest.string "message"
              "Resource.use: service must be finite and non-negative" msg)
        [ -1.0; Float.nan; Float.infinity; Float.neg_infinity ];
      chk_bool "statistics unchanged" true (stats () = before);
      chk_float "no time passed" 0.25 (Engine.now e);
      Resource.use r ~service:1.0;
      finish := Engine.now e);
  Engine.run e;
  chk_float "the next use starts when the first ends" 2.0 !finish;
  chk_int "served" 2 (Resource.served r);
  chk_float "waited 0.75" 0.75 (Resource.total_wait r)

(* {2 Against a list FCFS model}

   Random fibers nap, use the resource and read its statistics. The run
   logs every arrival, finish and read in execution order. The model
   takes the arrivals in that order (the order of same-instant arrivals
   is the engine's, checked in test_engine), books each one FCFS, and
   predicts from lists alone: each finish, and at each read the
   started count, the total wait (summed in start order) and the busy
   integral, one [end - start] term per busy period or piece of one
   between reads, summed in time order. A use arriving exactly when the
   server frees opens a new period. Every float must match bit for
   bit. Tenth-second quanta make the sums round, so a term split or
   merged differently would show. *)

type op = Nap of int | Use of int | Read

type entry =
  | Arrive of int * float * float  (* fiber, time, service *)
  | Finish of int * float
  | Seen of float * int * float * float  (* time, served, total wait, busy time *)

let quanta k = 0.1 *. float_of_int k

let ops_gen =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (3, map (fun k -> Nap k) (int_range 0 4));
        (4, map (fun k -> Use k) (int_range 0 5));
        (1, pure Read);
      ]
  in
  list_size (int_range 1 6) (list_size (int_range 0 10) op)

let run_resource scripts =
  let e = Engine.create () in
  let r = Resource.create e () in
  let log = ref [] in
  let seen () =
    log :=
      Seen (Engine.now e, Resource.served r, Resource.total_wait r, Resource.busy_time r)
      :: !log
  in
  List.iteri
    (fun f script ->
      Engine.spawn e (fun () ->
          List.iter
            (function
              | Nap k -> Engine.delay e (quanta k)
              | Use k ->
                log := Arrive (f, Engine.now e, quanta k) :: !log;
                Resource.use r ~service:(quanta k);
                log := Finish (f, Engine.now e) :: !log
              | Read -> seen ())
            script))
    scripts;
  Engine.run e;
  seen ();
  List.rev !log

(* The model's reservations, in arrival order: (arrival, start, finish). *)
let book arrivals =
  let free = ref 0.0 in
  List.map
    (fun (at, service) ->
      let start = if at >= !free then at else !free in
      free := start +. service;
      (at, start, !free))
    arrivals

(* The busy integral at [now] over [bookings], with the earlier [reads]
   splitting the periods: cut the busy time into pieces at every period
   boundary and read, and sum the pieces in time order. *)
let busy_at bookings ~reads ~now =
  (* Busy periods as (start, end) pairs: a booking opens one when it
     arrives at or after the server frees. *)
  let periods =
    List.fold_left
      (fun acc (at, start, finish) ->
        match acc with
        | (s, e) :: rest when at < e -> (s, finish) :: rest
        | _ -> (start, finish) :: acc)
      [] bookings
    |> List.rev
  in
  let cuts = List.filter (fun r -> r <= now) (reads @ [ now ]) in
  List.fold_left
    (fun total (s, e) ->
      let e = if e <= now then e else now in
      if s > now then total
      else begin
        let inside = List.filter (fun r -> r > s && r < e) cuts in
        let points = (s :: inside) @ [ e ] in
        let rec add total = function
          | a :: (b :: _ as rest) -> add (total +. (b -. a)) rest
          | _ -> total
        in
        add total points
      end)
    0.0 periods

let model_agrees scripts =
  let log = run_resource scripts in
  let arrivals = ref [] and finishes = Hashtbl.create 16 and reads = ref [] in
  let pending = Hashtbl.create 16 in
  List.for_all
    (function
      | Arrive (f, at, service) ->
        arrivals := !arrivals @ [ (at, service) ];
        let _, _, finish = List.nth (book !arrivals) (List.length !arrivals - 1) in
        Hashtbl.replace pending f finish;
        true
      | Finish (f, now) ->
        Hashtbl.replace finishes f now;
        Int64.equal
          (Int64.bits_of_float (Hashtbl.find pending f))
          (Int64.bits_of_float now)
      | Seen (now, served, wait, busy) ->
        let bookings = book !arrivals in
        let started = List.filter (fun (_, start, _) -> start <= now) bookings in
        let model_wait =
          List.fold_left (fun sum (at, start, _) -> sum +. (start -. at)) 0.0 started
        in
        let model_busy = busy_at bookings ~reads:!reads ~now in
        reads := !reads @ [ now ];
        served = List.length started
        && Int64.equal (Int64.bits_of_float wait) (Int64.bits_of_float model_wait)
        && Int64.equal (Int64.bits_of_float busy) (Int64.bits_of_float model_busy))
    log

let matches_list_model =
  qcheck "finishes and statistics match a list FCFS model, bit for bit" ~count:500 ops_gen
    model_agrees

let suites =
  [
    ( "resource",
      [
        case "single server serialises" single_server_serialises;
        case "FIFO order" fifo_order;
        case "busy/wait statistics" stats_busy_and_wait;
        case "one event per use" one_event_per_use;
        case "queue_length counts unstarted reservations" queue_length_counts_unstarted;
        case "bad service rejected" bad_service_rejected;
        matches_list_model;
      ] );
  ]
