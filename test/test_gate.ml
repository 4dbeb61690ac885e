(* The bench gate file and its verdict (bench/gate.ml): the parser's
   located rejections, each row kind's pass/fail rule, the scaling
   row's core threshold and the exit codes. No timings are taken. *)

open Tutil

let rows contents =
  match Gate.parse ~file:"g.txt" contents with
  | Ok rows -> rows
  | Error e -> Alcotest.fail ("unexpected parse error: " ^ e)

let parse_error contents =
  match Gate.parse ~file:"g.txt" contents with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

(* The exit code and printed report of one verdict. *)
let verdict ?(cores = 2) ?(ran = [ "perf"; "tournament" ]) ~measured contents =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let code = Gate.check ppf ~file:"g.txt" ~cores ~ran ~measured (rows contents) in
  Format.pp_print_flush ppf ();
  (code, Buffer.contents buf)

let test_parse () =
  match
    rows
      "# comment\n\
       alloc cache-churn 4\n\n\
       growth\tdisk-queue/scan 4.5\r\n\
       regret mixed LRU-2 0\n"
  with
  | [ a; g; r ] ->
    chk_bool "alloc row" true (a = { Gate.kind = Alloc; key = "cache-churn"; limit = 4.0 });
    chk_bool "growth row, tab and CR" true
      (g = { Gate.kind = Growth; key = "disk-queue/scan"; limit = 4.5 });
    chk_bool "regret key is family and policy" true
      (r = { Gate.kind = Regret; key = "mixed LRU-2"; limit = 0.0 })
  | l -> Alcotest.fail (Printf.sprintf "expected 3 rows, got %d" (List.length l))

let test_malformed_located () =
  let e = parse_error "alloc a 1\n# fine\nalloc b\n" in
  chk_bool "names file and line" true (contains_sub ~sub:"g.txt:3:" e);
  chk_bool "says what is missing" true (contains_sub ~sub:"takes a row name and a value" e);
  let e = parse_error "growth a fast\n" in
  chk_bool "non-number located" true (contains_sub ~sub:"g.txt:1: \"fast\" is not a number" e);
  let e = parse_error "regret mixed 3\n" in
  chk_bool "regret needs family and policy" true
    (contains_sub ~sub:"g.txt:1: a regret row takes a family, a policy and a value" e)

let test_unknown_kind () =
  let e = parse_error "alloc a 1\nratio cache-churn 4.5\n" in
  chk_bool "unknown kind located and named" true
    (contains_sub ~sub:"g.txt:2: unknown row kind \"ratio\"" e)

let test_missing_measurement () =
  let code, out = verdict ~measured:[ (Gate.Alloc, "a", 1.0) ] "alloc a 1\ngrowth a 4\n" in
  chk_int "family ran, row unmeasured: fails" 1 code;
  chk_bool "says so" true (contains_sub ~sub:"FAIL: no measurement" out)

let test_growth () =
  let run v = fst (verdict ~measured:[ (Gate.Growth, "q", v) ] "growth q 4\n") in
  chk_int "below the bound passes" 0 (run 1.7);
  chk_int "at the bound passes" 0 (run 4.0);
  chk_int "above the bound fails" 1 (run 16.3)

let test_alloc () =
  let run v = fst (verdict ~measured:[ (Gate.Alloc, "c", v) ] "alloc c 4\n") in
  chk_int "within budget passes" 0 (run 3.0);
  chk_int "over budget fails" 1 (run 5.0)

let test_regret () =
  let run v = fst (verdict ~measured:[ (Gate.Regret, "mixed MRU", v) ] "regret mixed MRU 247\n") in
  chk_int "at the ceiling passes" 0 (run 247.0);
  chk_int "above the ceiling fails" 1 (run 248.0)

let test_scaling_cores () =
  let run ~cores v =
    verdict ~cores ~measured:[ (Gate.Scaling, "fleet-events/jobs4", v) ]
      "scaling fleet-events/jobs4 3.6\n"
  in
  let code, out = run ~cores:3 0.33 in
  chk_int "skipped below 4 cores" 0 code;
  chk_bool "says skipped" true (contains_sub ~sub:"skipped" out);
  chk_int "binds at 4 cores" 1 (fst (run ~cores:4 0.33));
  chk_int "passes above 70% of the value" 0 (fst (run ~cores:4 2.6))

let test_no_family_ran () =
  let code, out =
    verdict ~ran:[ "tournament" ] ~measured:[] "alloc a 1\ngrowth a 4\n"
  in
  chk_int "none of the file's families ran: exit 2" 2 code;
  chk_bool "says so" true (contains_sub ~sub:"no family" out);
  (* Rows of a family that did not run are not judged. *)
  let code, _ =
    verdict ~ran:[ "tournament" ]
      ~measured:[ (Gate.Regret, "mixed LRU", 0.0) ]
      "alloc a 1\nregret mixed LRU 0\n"
  in
  chk_int "only the family that ran is judged" 0 code

let test_ungated_reported () =
  let code, out =
    verdict ~measured:[ (Gate.Alloc, "a", 1.0); (Gate.Alloc, "new-row", 2.0) ] "alloc a 1\n"
  in
  chk_int "an ungated measurement does not fail" 0 code;
  chk_bool "but is named" true (contains_sub ~sub:"alloc new-row" out)

(* Under `dune runtest` the cwd is _build/default/test; under a bare
   `dune exec test/main.exe` it is the project root. *)
let test_committed_file () =
  let path =
    List.find_opt Sys.file_exists [ "../bench/gates.txt"; "bench/gates.txt" ]
    |> Option.value ~default:"bench/gates.txt"
  in
  match Gate.load path with
  | Error e -> Alcotest.fail e
  | Ok rows ->
    let count k = List.length (List.filter (fun r -> r.Gate.kind = k) rows) in
    chk_int "66 regret ceilings" 66 (count Gate.Regret);
    chk_int "one scaling floor" 1 (count Gate.Scaling)

let suites =
  [
    ( "bench.gate",
      [
        case "parse kinds, comments and whitespace" test_parse;
        case "malformed rows name file and line" test_malformed_located;
        case "unknown kind rejected" test_unknown_kind;
        case "unmeasured row of a family that ran fails" test_missing_measurement;
        case "growth bound" test_growth;
        case "alloc budget" test_alloc;
        case "regret ceiling" test_regret;
        case "scaling skipped below 4 cores, binds at 4" test_scaling_cores;
        case "no family ran exits 2" test_no_family_ran;
        case "ungated measurements reported" test_ungated_reported;
        case "committed gate file parses" test_committed_file;
      ] );
  ]
