open Acfc_core
open Acfc_replacement
open Tutil
module Policy_core = Acfc_policy.Policy_core
module Cores = Acfc_policy.Cores
module Registry = Acfc_policy.Registry

(* {2 Trace generators} *)

let sequential_structure () =
  let t = Trace.sequential ~file:0 ~blocks:5 in
  chk_int "length" 5 (Array.length t);
  chk_bool "in order" true (Array.to_list t = List.init 5 (fun i -> blk i));
  chk_int "working set" 5 (Trace.working_set_size t)

let cyclic_structure () =
  let t = Trace.cyclic ~file:0 ~blocks:3 ~passes:2 in
  chk_bool "repeats" true
    (Array.to_list t = [ blk 0; blk 1; blk 2; blk 0; blk 1; blk 2 ]);
  chk_int "working set" 3 (Trace.working_set_size t)

let random_bounds () =
  let rng = Acfc_sim.Rng.create 0 in
  let t = Trace.random ~rng ~file:0 ~blocks:10 ~length:500 in
  chk_int "length" 500 (Array.length t);
  Array.iter (fun b -> chk_bool "in range" true (Block.index b < 10)) t

let hot_cold_mix () =
  let rng = Acfc_sim.Rng.create 1 in
  let t =
    Trace.hot_cold ~rng ~hot_file:0 ~hot_blocks:5 ~cold_file:1 ~cold_blocks:100
      ~hot_fraction:0.9 ~length:2000
  in
  let hot = Array.fold_left (fun n b -> if Block.file b = 0 then n + 1 else n) 0 t in
  chk_bool "roughly 90% hot" true (hot > 1700 && hot < 1980);
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Trace.hot_cold: fraction out of range") (fun () ->
      ignore
        (Trace.hot_cold ~rng ~hot_file:0 ~hot_blocks:1 ~cold_file:1 ~cold_blocks:1
           ~hot_fraction:1.5 ~length:1))

let zipf_skew () =
  let rng = Acfc_sim.Rng.create 2 in
  let t = Trace.zipf ~rng ~file:0 ~blocks:100 ~skew:1.2 ~length:5000 in
  (* Rank 0 must be the most popular block by a wide margin. *)
  let counts = Array.make 100 0 in
  Array.iter (fun b -> counts.(Block.index b) <- counts.(Block.index b) + 1) t;
  chk_bool "head heavier than tail" true (counts.(0) > 10 * counts.(99));
  Alcotest.check_raises "bad skew" (Invalid_argument "Trace.zipf: skew must be positive")
    (fun () -> ignore (Trace.zipf ~rng ~file:0 ~blocks:1 ~skew:0.0 ~length:1))

let interleave_preserves_order =
  qcheck "interleave preserves each trace's order" ~count:100
    QCheck2.Gen.(pair (int_range 0 40) (int_range 0 40))
    (fun (n1, n2) ->
      let rng = Acfc_sim.Rng.create (n1 + (100 * n2)) in
      let t1 = Trace.sequential ~file:0 ~blocks:n1 in
      let t2 = Trace.sequential ~file:1 ~blocks:n2 in
      let merged = Trace.interleave ~rng [ t1; t2 ] in
      let project file =
        Array.to_list merged |> List.filter (fun b -> Block.file b = file)
      in
      project 0 = Array.to_list t1 && project 1 = Array.to_list t2)

(* {2 Policy behaviour} *)

let run_policy policy ~capacity trace = Policy_sim.run policy ~capacity trace

let lru_thrashes_on_cycles () =
  let t = Trace.cyclic ~file:0 ~blocks:10 ~passes:5 in
  let r = run_policy (module Cores.Lru) ~capacity:9 t in
  chk_int "every access misses" 50 r.Policy_sim.misses

let mru_wins_on_cycles () =
  let t = Trace.cyclic ~file:0 ~blocks:10 ~passes:5 in
  let r = run_policy (module Cores.Mru) ~capacity:9 t in
  (* Pass 1 misses everything; later passes miss only around the one
     sacrificial frame. *)
  chk_bool "far fewer misses" true (r.Policy_sim.misses <= 10 + (4 * 2));
  let opt = run_policy (module Cores.Opt) ~capacity:9 t in
  chk_int "MRU is optimal on cycles" opt.Policy_sim.misses r.Policy_sim.misses

let clock_second_chance () =
  (* 0 is re-referenced, so CLOCK passes over it and evicts 1. *)
  let t = [| blk 0; blk 1; blk 0; blk 2 |] in
  let r = run_policy (module Cores.Clock) ~capacity:2 t in
  chk_int "misses" 3 r.Policy_sim.misses;
  (* FIFO evicts 0 despite the re-reference. *)
  let t2 = [| blk 0; blk 1; blk 0; blk 2; blk 0 |] in
  let fifo = run_policy (module Cores.Fifo) ~capacity:2 t2 in
  let clock = run_policy (module Cores.Clock) ~capacity:2 t2 in
  chk_bool "clock beats fifo here" true (clock.Policy_sim.misses < fifo.Policy_sim.misses)

let lru2_resists_scan_pollution () =
  (* Hot pair accessed repeatedly, interrupted by one-shot scans. LRU-2
     keeps the hot pair (two references each); LRU lets the scan push
     them out. *)
  let hot = [ blk 0; blk 1 ] in
  let scan i = [ blk (10 + i); blk (20 + i) ] in
  let refs =
    List.concat
      [ hot; hot; scan 0; hot; scan 1; hot; scan 2; hot; scan 3; hot ]
  in
  let t = Array.of_list refs in
  let lru2 = run_policy (module Cores.Lru_2) ~capacity:3 t in
  let lru = run_policy (module Cores.Lru) ~capacity:3 t in
  chk_bool "LRU-2 beats LRU under scans" true
    (lru2.Policy_sim.misses < lru.Policy_sim.misses)

let fits_in_cache_only_compulsory =
  qcheck "working set <= capacity: only compulsory misses" ~count:100
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 200) (int_range 0 7)))
    (fun (blocks, refs) ->
      let t = Array.of_list (List.map (fun i -> blk (i mod blocks)) refs) in
      let ws = Trace.working_set_size t in
      List.for_all
        (fun policy ->
          let r = run_policy policy ~capacity:8 t in
          r.Policy_sim.misses = ws)
        Registry.all)

let opt_is_lower_bound =
  qcheck "OPT lower-bounds every policy" ~count:150
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 1 300) (int_range 0 20)))
    (fun (capacity, refs) ->
      let t = Array.of_list (List.map blk refs) in
      let opt = run_policy (module Cores.Opt) ~capacity t in
      List.for_all
        (fun policy ->
          (run_policy policy ~capacity t).Policy_sim.misses >= opt.Policy_sim.misses)
        Registry.all)

(* Exhaustive optimal miss count for tiny instances, to verify OPT. *)
let brute_force_min_misses ~capacity trace =
  let n = Array.length trace in
  let module S = Set.Make (Block) in
  let rec go pos resident =
    if pos = n then 0
    else
      let b = trace.(pos) in
      if S.mem b resident then go (pos + 1) resident
      else if S.cardinal resident < capacity then 1 + go (pos + 1) (S.add b resident)
      else
        (* Try every possible victim. *)
        S.fold
          (fun victim best ->
            let misses = 1 + go (pos + 1) (S.add b (S.remove victim resident)) in
            Stdlib.min best misses)
          resident max_int
  in
  go 0 S.empty

let opt_matches_brute_force =
  qcheck "OPT == exhaustive optimum on tiny traces" ~count:60
    QCheck2.Gen.(list_size (int_range 1 11) (int_range 0 4))
    (fun refs ->
      let t = Array.of_list (List.map blk refs) in
      let opt = run_policy (module Cores.Opt) ~capacity:2 t in
      opt.Policy_sim.misses = brute_force_min_misses ~capacity:2 t)

let two_q_scan_resistance () =
  (* A hot block re-referenced between full-cache one-shot scans. Once
     the hot block earns its way into 2Q's protected queue (evicted from
     probation, then re-referenced via the ghost list), the scans can no
     longer displace it; LRU loses it to every scan. *)
  let scan i = List.init 4 (fun j -> blk (10 + (4 * i) + j)) in
  let refs =
    List.concat
      [ [ blk 0 ]; scan 0; [ blk 0 ]; scan 1; [ blk 0 ]; scan 2; [ blk 0 ];
        scan 3; [ blk 0 ] ]
  in
  let t = Array.of_list refs in
  let two_q = run_policy (module Cores.Two_q) ~capacity:4 t in
  let lru = run_policy (module Cores.Lru) ~capacity:4 t in
  chk_bool "LRU misses everything" true (lru.Policy_sim.misses = Array.length t);
  chk_bool "2Q protects the promoted hot block" true
    (two_q.Policy_sim.misses < lru.Policy_sim.misses);
  (* And on a plain loop that fits, it still takes only compulsory
     misses. *)
  let loop = Trace.cyclic ~file:0 ~blocks:3 ~passes:6 in
  let r = run_policy (module Cores.Two_q) ~capacity:8 loop in
  chk_int "compulsory only when fitting" 3 r.Policy_sim.misses

(* {2 Indexed vs reference policies}

   Every stock core must choose the exact victim its naive list/scan
   record twin chooses, decision by decision, on randomised traces
   (Reference.lockstep runs the two as one pair through Policy_sim.run
   and reports the first divergence). *)

let lockstep_trace_gen =
  QCheck2.Gen.(
    pair (int_range 1 8) (list_size (int_range 1 400) (int_range 0 25)))

let lockstep_agrees name indexed reference =
  qcheck
    (Printf.sprintf "%s indexed == reference on random traces" name)
    ~count:120 lockstep_trace_gen
    (fun (capacity, refs) ->
      let t = Array.of_list (List.map blk refs) in
      Reference.lockstep indexed reference ~capacity t = None)

let lockstep_cases =
  List.map
    (fun (name, indexed, reference) -> lockstep_agrees name indexed reference)
    [
      ("LRU-2", (module Cores.Lru_2 : Policy_core.CORE), (module Reference.Lru_2 : Policy_core.CORE));
      ("OPT", (module Cores.Opt), (module Reference.Opt));
      ("LRU", (module Cores.Lru), (module Reference.Lru));
      ("MRU", (module Cores.Mru), (module Reference.Mru));
      ("FIFO", (module Cores.Fifo), (module Reference.Fifo));
      ("CLOCK", (module Cores.Clock), (module Reference.Clock));
      ("2Q", (module Cores.Two_q), (module Reference.Two_q));
      ("RAND", (module Cores.Rand), (module Reference.Rand));
    ]

let reference_results_match =
  (* Same hit/miss accounting end to end, not just the same victims. *)
  qcheck "indexed and reference miss counts agree" ~count:80 lockstep_trace_gen
    (fun (capacity, refs) ->
      let t = Array.of_list (List.map blk refs) in
      List.for_all
        (fun (indexed, reference) ->
          (run_policy indexed ~capacity t).Policy_sim.misses
          = (run_policy reference ~capacity t).Policy_sim.misses)
        [
          ((module Cores.Lru_2 : Policy_core.CORE), (module Reference.Lru_2 : Policy_core.CORE));
          ((module Cores.Opt), (module Reference.Opt));
        ])

let rand_uniform_and_resident =
  (* RAND's indexed array must only ever evict resident blocks (the
     framework validates this) and keep hit/miss counts plausible: at
     most the reference working set, at least the compulsory misses. *)
  qcheck "RAND stays within compulsory/total bounds" ~count:80
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 300) (int_range 0 15)))
    (fun (capacity, refs) ->
      let t = Array.of_list (List.map blk refs) in
      let r = run_policy (module Cores.Rand) ~capacity t in
      let ws = Trace.working_set_size t in
      r.Policy_sim.misses >= ws && r.Policy_sim.misses <= Array.length t)

let framework_validation () =
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Policy_sim.run: capacity must be positive") (fun () ->
      ignore (run_policy (module Cores.Lru) ~capacity:0 [| blk 0 |]));
  (* A policy that evicts a non-resident block is caught. *)
  let module Bad = struct
    type t = unit

    let name = "BAD"

    let summary = "names a block that is not resident"

    let adaptive = false

    let needs_future = false

    let create ~capacity:_ ~future:_ = ()

    let on_event () _ = ()

    let victim () ~pos:_ ~missing:_ = blk 999

    let stats () = []
  end in
  match run_policy (module Bad) ~capacity:1 [| blk 0; blk 1 |] with
  | _ -> Alcotest.fail "bad policy accepted"
  | exception Failure _ -> ()

let contains = contains_sub

let registry_lookup () =
  chk_bool "finds OPT" true (Result.is_ok (Registry.find "opt"));
  chk_bool "finds LRU" true (Result.is_ok (Registry.find "LRU"));
  chk_bool "finds 2Q" true (Result.is_ok (Registry.find "2q"));
  chk_bool "finds ARC" true (Result.is_ok (Registry.find "arc"));
  (match Registry.find "nope" with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error msg ->
    chk_bool "error lists names" true
      (contains ~sub:"LRU" msg && contains ~sub:"PERCEPTRON" msg));
  (match Registry.find "lru3" with
  | Ok _ -> Alcotest.fail "near-miss accepted"
  | Error msg ->
    chk_bool "suggests near match" true (contains ~sub:"did you mean" msg));
  chk_int "eleven policies" 11 (List.length Registry.all)

let miss_ratio () =
  let t = Trace.cyclic ~file:0 ~blocks:4 ~passes:2 in
  let r = run_policy (module Cores.Lru) ~capacity:8 t in
  chk_float "ratio" 0.5 (Policy_sim.miss_ratio r)

let suites =
  [
    ( "replacement: traces",
      [
        case "sequential" sequential_structure;
        case "cyclic" cyclic_structure;
        case "random bounds" random_bounds;
        case "hot/cold mix" hot_cold_mix;
        case "zipf skew" zipf_skew;
        interleave_preserves_order;
      ] );
    ( "replacement: policies",
      [
        case "LRU thrashes on cycles" lru_thrashes_on_cycles;
        case "MRU optimal on cycles" mru_wins_on_cycles;
        case "CLOCK second chance" clock_second_chance;
        case "LRU-2 resists scans" lru2_resists_scan_pollution;
        case "2Q resists scans" two_q_scan_resistance;
        case "framework validation" framework_validation;
        case "policy lookup" registry_lookup;
        case "miss ratio" miss_ratio;
        fits_in_cache_only_compulsory;
        opt_is_lower_bound;
        opt_matches_brute_force;
      ] );
    ( "replacement: indexed vs reference",
      lockstep_cases @ [ reference_results_match; rand_uniform_and_resident ] );
  ]
