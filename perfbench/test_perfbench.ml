(* The benchmark's own tests, on tiny runs: a couple of units per
   workload, one round, no warm-up. *)

open Perfbench
module Json = Acfc_obs.Json

(* Tests run in _build/default/perfbench; the checkout is one level up. *)
let root = ".."

let tiny ?(seed = 0) ?(traced = false) ?table w =
  Bench.run
    {
      (Bench.default_config w) with
      seed;
      traced;
      root;
      table = Option.value table ~default:(Checks.empty_table ());
      seconds = 0.0;
      max_units = Some 2;
    }

let fail fmt = Printf.ksprintf failwith fmt

(* The entries of a BENCHMARK.json section, as (name, unit) pairs; the
   unit is "" where an entry has none. *)
let declared section =
  let json =
    match Json.of_string (Units.read_file (Filename.concat root "BENCHMARK.json")) with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
  in
  let field k m = Option.value ~default:"" (Option.bind (Json.member k m) Json.to_str) in
  match Option.bind (Json.member section json) Json.to_list with
  | Some l -> List.map (fun m -> (field "name" m, field "unit" m)) l
  | None -> fail "BENCHMARK.json: no %s" section

let printed (r : Bench.report) = List.map (fun (n, u, _) -> (n, u)) r.Bench.metrics

(* A tiny run prints every named metric with its unit, for every
   workload, untraced and traced, and every output check passes. *)
let every_metric () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun (traced, want) ->
          let r = tiny ~traced w in
          if printed r <> want then
            fail "%s (traced=%b): printed metrics differ from BENCHMARK.json" name traced;
          if r.Bench.attempted = 0 || r.Bench.failed <> 0 then
            fail "%s (traced=%b): %d of %d units failed: %s" name traced r.Bench.failed
              r.Bench.attempted
              (String.concat "; " r.Bench.problems))
        [ (false, e2e); (true, layers) ])
    Units.workloads;
  let names = List.map (fun (n, _) -> n) (declared "workloads") in
  if names <> List.map fst Units.workloads then fail "BENCHMARK.json workloads differ"

let pass_ratio (r : Bench.report) =
  match List.find_opt (fun (n, _, _) -> n = "unit_pass_ratio") r.Bench.metrics with
  | Some (_, _, v) -> v
  | None -> fail "no unit_pass_ratio"

(* A corrupted expected digest fails exactly that unit; the run goes
   on and reports it instead of aborting. *)
let corrupted_digest () =
  let w = Units.Paper_write and name = "paper-write" in
  let clean = tiny w in
  let line digests =
    Checks.table_line ~workload:name ~seed:0 ~inputs:(Checks.inputs_digest clean.Bench.units)
      digests
  in
  let good = tiny ~table:(Checks.parse_table (line clean.Bench.digests)) w in
  if not good.Bench.table_checked then fail "the table row was not applied";
  if good.Bench.failed <> 0 then fail "an intact table failed %d units" good.Bench.failed;
  let bad = Array.copy clean.Bench.digests in
  bad.(1) <- "00000000";
  let r = tiny ~table:(Checks.parse_table (line bad)) w in
  if r.Bench.failed <> 1 || r.Bench.attempted <> 2 then
    fail "corrupted digest: %d of %d failed (want 1 of 2)" r.Bench.failed r.Bench.attempted;
  if not (pass_ratio r < 1.0) then fail "unit_pass_ratio did not drop"

(* The seed changes every seeded input (corpus and scenario hashes)
   but not the metric names. *)
let seed_changes_inputs () =
  List.iter
    (fun w ->
      let a = Units.setup ~root ~seed:0 w and b = Units.setup ~root ~seed:1 w in
      let hashes (s : Units.setup) =
        List.map (fun (t : Units.trace) -> t.Units.hash) s.Units.traces
        @ List.filter_map
            (fun (u : Units.t) -> if u.Units.golden = None then Some u.Units.input else None)
            s.Units.units
      in
      List.iter2
        (fun x y ->
          if x = y then fail "%s: seed 0 and 1 share input %s" (Units.workload_name w) x)
        (hashes a) (hashes b))
    (List.map snd Units.workloads);
  let w = Units.Policy_replay in
  if printed (tiny ~seed:0 w) <> printed (tiny ~seed:1 w) then
    fail "metric names depend on the seed"

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n%!" name)
    [
      ("every metric printed with its unit", every_metric);
      ("corrupted digest counts as a failed unit", corrupted_digest);
      ("seed changes inputs, not metric names", seed_changes_inputs);
    ]
