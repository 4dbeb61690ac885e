(* The indexed disk queue (Sched_queue) against its naive list-based
   reference: randomised arrival/dispatch sequences must produce the
   same picks, lengths, and sweep reversals under both FCFS and SCAN. *)

open Tutil
module Sq = Acfc_disk.Sched_queue

(* A step either enqueues a waiter for an address or frees the drive at
   a head position and dispatches. Addresses are drawn from a small
   range so equal-address ties and sweep reversals are common. *)
type step = Add of int | Pick of int

let steps_gen =
  let open QCheck2.Gen in
  list
    (bind (int_range 0 40) (fun v ->
         map (fun add -> if add then Add v else Pick v) bool))

(* [Sq.pick] raises on an empty queue where the reference returns
   [None]. *)
let pick_opt q ~head = if Sq.is_empty q then None else Some (Sq.pick q ~head)

let agree discipline steps =
  let indexed = Sq.create discipline in
  let naive = Sq.Naive.create discipline in
  let next_id = ref 0 in
  List.for_all
    (fun step ->
      match step with
      | Add addr ->
        let id = !next_id in
        incr next_id;
        Sq.add indexed ~addr id;
        Sq.Naive.add naive ~addr id;
        Sq.length indexed = Sq.Naive.length naive
      | Pick head ->
        let a = pick_opt indexed ~head and b = Sq.Naive.pick naive ~head in
        a = b
        && Sq.length indexed = Sq.Naive.length naive
        && Sq.sweep_up indexed = Sq.Naive.sweep_up naive)
    steps

let fcfs_agrees =
  qcheck "FCFS indexed picker == naive reference" ~count:300 steps_gen (agree Sq.Fcfs)

let scan_agrees =
  qcheck "SCAN indexed picker == naive reference" ~count:300 steps_gen (agree Sq.Scan)

(* Exhaustive drain: everything enqueued comes out exactly once, in the
   same order under both implementations. *)
let drain_identical () =
  List.iter
    (fun discipline ->
      let indexed = Sq.create discipline in
      let naive = Sq.Naive.create discipline in
      let addrs = [ 30; 5; 30; 17; 99; 0; 42; 30; 5; 64 ] in
      List.iteri
        (fun id addr ->
          Sq.add indexed ~addr id;
          Sq.Naive.add naive ~addr id)
        addrs;
      let drain pick =
        let rec go acc head =
          match pick ~head with
          | None -> List.rev acc
          | Some id -> go (id :: acc) (List.nth addrs id)
        in
        go [] 20
      in
      let a = drain (pick_opt indexed) in
      let b = drain (fun ~head -> Sq.Naive.pick naive ~head) in
      check
        Alcotest.(list int)
        "drain order identical" b a;
      chk_int "all served" (List.length addrs) (List.length a))
    [ Sq.Fcfs; Sq.Scan ]

let scan_elevator () =
  (* Head at 50 sweeping up: serves 60, 70, then reverses for 40, 10. *)
  let q = Sq.create Sq.Scan in
  List.iteri (fun id addr -> Sq.add q ~addr id) [ 40; 60; 10; 70 ];
  let picks = List.init 4 (fun _ -> Sq.pick q ~head:50) in
  check Alcotest.(list int) "elevator order" [ 1; 3; 0; 2 ] picks;
  chk_bool "swept down" false (Sq.sweep_up q);
  chk_bool "drained" true (Sq.is_empty q)

let fcfs_ties () =
  (* Same address repeatedly: FCFS and SCAN both serve arrival order. *)
  List.iter
    (fun discipline ->
      let q = Sq.create discipline in
      for id = 0 to 9 do
        Sq.add q ~addr:7 id
      done;
      let picks = List.init 10 (fun _ -> Sq.pick q ~head:3) in
      check Alcotest.(list int) "arrival order on ties" (List.init 10 Fun.id) picks)
    [ Sq.Fcfs; Sq.Scan ]

let empty_pick () =
  List.iter
    (fun discipline ->
      let q = Sq.create discipline in
      let refused () =
        Alcotest.check_raises "empty pick raises"
          (Invalid_argument "Sched_queue.pick: empty queue") (fun () ->
            ignore (Sq.pick q ~head:0))
      in
      refused ();
      Sq.add q ~addr:3 0;
      chk_int "length" 1 (Sq.length q);
      chk_int "the one key" 0 (Sq.pick q ~head:0);
      refused ();
      chk_int "a refused pick leaves the queue empty" 0 (Sq.length q))
    [ Sq.Fcfs; Sq.Scan ]

(* The FCFS ring across its growth and wrap-around: keys come out in
   arrival order whatever the interleaving of adds and picks. *)
let fcfs_ring_wraps () =
  let q = Sq.create Sq.Fcfs in
  let next_in = ref 0 and next_out = ref 0 in
  for round = 1 to 40 do
    for _ = 1 to round mod 7 + 3 do
      Sq.add q ~addr:(!next_in * 31 mod 97) !next_in;
      incr next_in
    done;
    for _ = 1 to round mod 5 + 1 do
      if not (Sq.is_empty q) then begin
        chk_int "arrival order" !next_out (Sq.pick q ~head:0);
        incr next_out
      end
    done
  done;
  chk_int "length" (!next_in - !next_out) (Sq.length q)

let suites =
  [
    ( "sched_queue",
      [
        fcfs_agrees;
        scan_agrees;
        case "drain identical vs naive" drain_identical;
        case "SCAN elevator order" scan_elevator;
        case "arrival order on equal addresses" fcfs_ties;
        case "empty queue" empty_pick;
        case "FCFS ring wraps and grows" fcfs_ring_wraps;
      ] );
  ]
