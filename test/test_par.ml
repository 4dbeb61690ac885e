(* The domain pool (acfc.par): ordering, failure propagation, nesting
   rejection, and the contract the experiment layer rests on — the same
   seeds give byte-identical results at every [jobs] value. *)

open Tutil
module Pool = Acfc_par.Pool
module Runner = Acfc_workload.Runner
module Obs = Acfc_obs
open Acfc_experiments

(* Unequal amounts of work per element, so that with several workers the
   completion order differs from the submission order. *)
let slow_square x =
  let acc = ref 0 in
  for i = 1 to (x mod 5) * 10_000 do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc);
  x * x

let test_map_order () =
  let xs = List.init 24 Fun.id in
  let expected = List.map slow_square xs in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list int)
        (Printf.sprintf "map ~jobs:%d preserves input order" jobs)
        expected
        (Pool.map ~jobs slow_square xs))
    [ 1; 2; 4 ]

let test_run_list () =
  let tasks = List.init 9 (fun i () -> slow_square i) in
  check
    Alcotest.(list int)
    "run_list matches direct application"
    (List.map (fun task -> task ()) tasks)
    (Pool.run_list ~jobs:3 tasks)

let test_async_await () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let futures = List.init 8 (fun i -> Pool.async pool (fun () -> slow_square i)) in
  (* Await out of submission order; results must not care. *)
  List.iteri
    (fun i future -> chk_int "await out of order" (slow_square (7 - i)) (Pool.await pool future))
    (List.rev futures);
  (* Awaiting a settled future again returns the same value. *)
  chk_int "second await" 49 (Pool.await pool (List.nth futures 7))

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      let completed = Atomic.make 0 in
      (match
         Pool.map ~jobs
           (fun i ->
             if i mod 3 = 1 then raise (Boom i)
             else begin
               Atomic.incr completed;
               i
             end)
           (List.init 12 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> chk_int "first failure in input order" 1 i);
      (* At jobs=1 the sequential path stops at the first raise (tasks
         0 only); a real pool drains every task before re-raising. *)
      if jobs > 1 then chk_int "pool drained before re-raise" 8 (Atomic.get completed))
    [ 1; 4 ]

let test_nested_rejected () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun () -> Pool.run_list ~jobs:1 [ (fun () -> 0) ]) [ () ] with
      | _ -> Alcotest.fail "nested pool use was not rejected"
      | exception Pool.Nested -> ())
    [ 1; 2 ]

let test_async_nested_rejected () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let future = Pool.async pool (fun () -> Pool.map ~jobs:1 (fun x -> x) [ 1 ]) in
  match Pool.await pool future with
  | _ -> Alcotest.fail "nested pool use was not rejected"
  | exception Pool.Nested -> ()

(* {2 Team: pinned worker domains and the reusable barrier} *)

module Team = Acfc_par.Team

let test_team_rounds () =
  List.iter
    (fun workers ->
      Team.with_team ~workers @@ fun team ->
      let counters = Array.make workers 0 in
      for _ = 1 to 50 do
        Team.run team (fun wid -> counters.(wid) <- counters.(wid) + 1)
      done;
      Array.iteri
        (fun i c ->
          chk_int
            (Printf.sprintf "worker %d of %d ran every round" i workers)
            50 c)
        counters)
    [ 1; 2; 4 ]

exception Kaboom of int

let test_team_failure () =
  Team.with_team ~workers:3 @@ fun team ->
  (match Team.run team (fun wid -> if wid >= 1 then raise (Kaboom wid)) with
  | () -> Alcotest.fail "team failure was not propagated"
  | exception Kaboom w -> chk_int "lowest failing worker re-raised" 1 w);
  (* A failed round must not wedge the barrier. *)
  let ran = Array.make 3 false in
  Team.run team (fun wid -> ran.(wid) <- true);
  Array.iteri
    (fun i ok -> chk_bool (Printf.sprintf "worker %d usable after failure" i) true ok)
    ran

(* Team jobs count as pool tasks: the no-nested-parallelism contract
   covers them on every worker, including the workers=1 caller path. *)
let test_team_nesting_rejected () =
  List.iter
    (fun workers ->
      Team.with_team ~workers @@ fun team ->
      match Team.run team (fun _ -> ignore (Pool.map ~jobs:2 (fun x -> x) [ 1 ])) with
      | () -> Alcotest.fail "pool use inside a team job was not rejected"
      | exception Pool.Nested -> ())
    [ 1; 2 ]

(* {2 Determinism regressions: the reason the pool may exist at all} *)

let render_fig5 jobs =
  Format.asprintf "%a" Multi.print
    (Measure.run ~jobs ~runs:2 (Multi.grid ~sizes:[ 6.4 ] ~combos:[ [ "cs3"; "ldk" ] ] ()))

let test_multi_determinism () =
  chk_bool "fig5 tables byte-identical at jobs 1 vs 4" true
    (String.equal (render_fig5 1) (render_fig5 4))

(* Per-task sinks: each simulation owns its observability pipeline, so
   the metrics snapshots must also be independent of [jobs]. *)
let metrics_json jobs =
  Pool.run_list ~jobs
    (List.init 2 (fun seed () ->
         let sink = Obs.Sink.create ~backend:Obs.Sink.Null () in
         ignore
           (Acfc_scenario.Scenario.run_specs ~seed ~obs:sink ~cache_blocks:128
              ~alloc_policy:Acfc_core.Config.Lru_sp
              [
                Runner.Spec.make ~smart:false ~disk:0
                  (Acfc_workload.Readn.app ~n:60 ~mode:`Oblivious ());
              ]);
         Obs.Json.to_string
           (Obs.Metrics.snapshot (Obs.Sink.metrics sink) ~now:(Obs.Sink.now sink))))

let test_metrics_determinism () =
  check
    Alcotest.(list string)
    "metrics snapshots byte-identical at jobs 1 vs 2" (metrics_json 1) (metrics_json 2)

let suites =
  [
    ( "par/pool",
      [
        case "map preserves order" test_map_order;
        case "run_list" test_run_list;
        case "async/await out of order" test_async_await;
        case "first failure re-raised after drain" test_exception_propagation;
        case "nested use rejected" test_nested_rejected;
        case "nested use rejected through async" test_async_nested_rejected;
      ] );
    ( "par/team",
      [
        case "every worker runs every round" test_team_rounds;
        case "failure propagation and recovery" test_team_failure;
        case "nested pool use rejected inside jobs" test_team_nesting_rejected;
      ] );
    ( "par/determinism",
      [
        case "fig5 grid at jobs 1 vs 4" test_multi_determinism;
        case "metrics snapshots at jobs 1 vs 2" test_metrics_determinism;
      ] );
  ]
