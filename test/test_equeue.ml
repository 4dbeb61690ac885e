(* Unit cases and sorted-list properties for {!Engine.Equeue}, the
   engine's pending-event queue: (time, seq) order, and each job handed
   back with the key it was pushed under. *)

open Tutil
module E = Acfc_sim.Engine.Equeue

(* Push a job that records its own key when it runs. *)
let push q log ~time ~seq = E.push q ~time ~seq (E.Thunk (fun () -> log := (time, seq) :: !log))

(* Pop one job, run it, and return the key it recorded. *)
let pop_key q log =
  match E.pop q with
  | E.Thunk f ->
    f ();
    List.hd !log
  | _ -> Alcotest.fail "unexpected job kind"

let drain q log =
  let rec go acc = if E.is_empty q then List.rev acc else go (pop_key q log :: acc) in
  go []

let keys = List.mapi (fun seq time -> (time, seq))

let empty_queue () =
  let q = E.create () in
  chk_int "length" 0 (E.length q);
  chk_bool "is_empty" true (E.is_empty q);
  Alcotest.check_raises "top_time" (Invalid_argument "Equeue.top_time: empty queue")
    (fun () -> ignore (E.top_time q));
  Alcotest.check_raises "pop" (Invalid_argument "Equeue.pop: empty queue") (fun () ->
      ignore (E.pop q))

let push_pop_order () =
  let q = E.create () and log = ref [] in
  let pushed = keys [ 5.; 1.; 4.; 2.; 3. ] in
  List.iter (fun (time, seq) -> push q log ~time ~seq) pushed;
  chk_int "length" 5 (E.length q);
  chk_float "top_time is the least" 1. (E.top_time q);
  chk_bool "sorted drain" true (drain q log = List.sort compare pushed);
  chk_bool "empty after" true (E.is_empty q)

let refill_after_drain () =
  let q = E.create () and log = ref [] in
  List.iter (fun (time, seq) -> push q log ~time ~seq) (keys [ 3.; 2.; 1. ]);
  ignore (drain q log);
  push q log ~time:9. ~seq:7;
  E.push q ~time:8. ~seq:8 E.Nop;
  chk_int "refilled" 2 (E.length q);
  chk_bool "a Nop keeps its place" true (match E.pop q with E.Nop -> true | _ -> false);
  chk_bool "reused slot hands back its job" true (pop_key q log = (9., 7))

(* Past the 64 slots a fresh queue starts with, the queue grows; every
   job pending across the growth comes back under its own key. *)
let grows_past_initial_capacity () =
  let q = E.create () and log = ref [] in
  let pushed = keys (List.init 200 (fun i -> float_of_int ((i * 37) mod 101))) in
  List.iteri
    (fun i (time, seq) ->
      push q log ~time ~seq;
      (* Pops between pushes leave free slots behind the growth. *)
      if i mod 5 = 4 then ignore (pop_key q log))
    pushed;
  chk_int "pending" 160 (E.length q);
  let rest = drain q log in
  chk_bool "remaining drain sorted" true (rest = List.sort compare rest);
  chk_bool "every job back once" true (List.sort compare !log = List.sort compare pushed)

(* The engine feeds a globally increasing seq, so same-instant events
   pop first-in first-out whatever order they were pushed in. *)
let tie_ordering () =
  let q = E.create () and log = ref [] in
  List.iter
    (fun (time, seq) -> push q log ~time ~seq)
    [ (1.0, 3); (1.0, 1); (0.5, 2); (1.0, 2) ];
  chk_bool "tie order" true (drain q log = [ (0.5, 2); (1.0, 1); (1.0, 2); (1.0, 3) ])

let sorted_drain_prop =
  qcheck "pop drains in sorted order" ~count:500
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 50))
    (fun times ->
      let q = E.create () and log = ref [] in
      let pushed = keys (List.map float_of_int times) in
      List.iter (fun (time, seq) -> push q log ~time ~seq) pushed;
      drain q log = List.sort compare pushed)

(* Interleave pushes and pops; each pop must hand back the least
   pending key, as a sorted-list model says. *)
let interleaved_prop =
  qcheck "interleaved push/pop matches model" ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) (pair bool (int_range 0 50)))
    (fun ops ->
      let q = E.create () and log = ref [] in
      let model = ref [] in
      List.for_all
        (fun (is_pop, t) ->
          if is_pop then (
            match !model with
            | [] -> E.is_empty q
            | key :: rest ->
              model := rest;
              E.top_time q = fst key && pop_key q log = key)
          else begin
            let key = (float_of_int t, List.length !log + List.length !model) in
            push q log ~time:(fst key) ~seq:(snd key);
            model := List.merge compare !model [ key ];
            E.length q = List.length !model
          end)
        ops)

let suites =
  [
    ( "equeue",
      [
        case "empty" empty_queue;
        case "push/pop order" push_pop_order;
        case "refill after drain" refill_after_drain;
        case "grows past its initial capacity" grows_past_initial_capacity;
        case "tie ordering" tie_ordering;
        sorted_drain_prop;
        interleaved_prop;
      ] );
  ]
