(* perfbench: the repository's whole-run benchmark.

     perfbench --workload paper-read --seed 3 --seconds 10 --trace 0

   prints one line per input hash and metric, then the result as one
   JSON object on the last line. --trace 1 runs the layer ladder
   instead and prints the per-layer metrics; the spans go to
   --spans FILE at exit. --write-digests FILE regenerates the
   expected-digest table. Run from the repository checkout; see
   perfbench/README.md. *)

open Perfbench

let digests = "perfbench/expected_digests.txt"

(* --write-digests covers seeds 0 .. table_seeds - 1. *)
let table_seeds = 32

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let spans_out = ref "perfbench-spans.jsonl" and write_digests = ref "" in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME paper-read | paper-write | policy-replay | fleet" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the layer ladder");
      ("--spans", Arg.Set_string spans_out, "FILE where the traced run writes its spans");
      ("--write-digests", Arg.Set_string write_digests, "FILE regenerate the digest table");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if not (Sys.file_exists "examples/scenarios") then
    fail "run from the repository checkout (examples/scenarios not found)";
  if !write_digests <> "" then begin
    let lines =
      List.concat_map
        (fun (wname, w) ->
          List.init table_seeds (fun seed ->
              let r = Bench.run { (Bench.default_config w) with seed; seconds = 0.0 } in
              if r.Bench.failed > 0 then
                fail
                  (Printf.sprintf "%s seed %d: %s" wname seed
                     (String.concat "; " r.Bench.problems));
              Printf.eprintf "%s seed %d: %d units\n%!" wname seed (List.length r.Bench.units);
              Checks.table_line ~workload:wname ~seed
                ~inputs:(Checks.inputs_digest r.Bench.units)
                r.Bench.digests))
        Units.workloads
    in
    let oc = open_out !write_digests in
    output_string oc
      "# perfbench expected digests: <workload> <seed> <inputs> <unit digests, in unit order>\n";
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  end
  else begin
    let w =
      match List.assoc_opt !workload Units.workloads with
      | Some w -> w
      | None -> fail (Printf.sprintf "unknown workload %S" !workload)
    in
    let r =
      Bench.run
        {
          (Bench.default_config w) with
          seed = !seed;
          seconds = !seconds;
          traced = !trace = 1;
          table = Checks.load_table digests;
        }
    in
    Option.iter (fun s -> Spans.write s !spans_out) r.Bench.spans;
    Bench.print_report ~seed:!seed r
  end
