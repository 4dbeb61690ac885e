(* The synthetic workload generator and the fuzz harness.

   The heart of this suite is one quick fuzz pass over every pattern
   family — ≥ 1000 generated/mutated programs through the four ROADMAP
   invariants (valid ⇒ exec cannot fail; references ≡ recorded demand
   stream; codec round-trip is identity; corruptions are rejected with
   a $.path) — plus pinned diagnostics for the wirgen spec codec and
   for each Wir rejection class the corrupting mutators target, so a
   fuzz failure always maps to a stable message. *)

module Wir = Acfc_wir.Wir
module Wirgen = Acfc_wirgen.Wirgen
module Mutate = Acfc_wirgen.Mutate
module Fuzz = Acfc_wirgen.Fuzz
module Scenario = Acfc_scenario.Scenario
module Rng = Acfc_sim.Rng
module Json = Acfc_obs.Json
open Tutil

let chk_str = check Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

let expect_error msg = function
  | Ok _ -> Alcotest.fail ("succeeded; expected: " ^ msg)
  | Error e -> chk_str "error message" msg e

(* {2 Spec basics} *)

let test_default_specs_valid () =
  ok (Wirgen.validate Wirgen.default);
  List.iter (fun s -> ok (Wirgen.validate s)) Fuzz.default_specs;
  chk_int "one single-pattern spec per family plus the mixed default"
    (List.length Wirgen.patterns + 1)
    (List.length Fuzz.default_specs)

let test_spec_validate_errors () =
  let d = Wirgen.default in
  List.iter
    (fun (spec, msg) -> expect_error msg (Wirgen.validate spec))
    [
      ({ d with Wirgen.name = "" }, "wirgen: corpus name must be non-empty at $.name");
      ( { d with Wirgen.mix = [ (Wirgen.Sequential, 0.0) ] },
        "wirgen: at least one pattern weight must be positive at $.mix" );
      ( { d with Wirgen.mix = [ (Wirgen.Sequential, -1.0) ] },
        "wirgen: pattern weights must be finite and non-negative at $.mix" );
      ( { d with Wirgen.files = (0, 4) },
        "wirgen: file count minimum must be at least 1 at $.files" );
      ( { d with Wirgen.file_blocks = (8, 4) },
        "wirgen: file size maximum must be at least its minimum at $.file_blocks" );
      ( { d with Wirgen.passes = (0, 0) },
        "wirgen: pass count minimum must be at least 1 at $.passes" );
      ({ d with Wirgen.locality = 0.0 }, "wirgen: locality must be in (0, 1] at $.locality");
      ({ d with Wirgen.advise = 1.5 }, "wirgen: advise density must be in [0, 1] at $.advise");
    ]

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let s = Wirgen.to_string spec in
      let spec' = ok (Wirgen.of_string s) in
      chk_bool "spec round-trips" true (spec' = spec);
      chk_str "canonical form is stable" s (Wirgen.to_string spec');
      chk_str "hash is stable" (Wirgen.hash spec) (Wirgen.hash spec'))
    (Wirgen.default :: Fuzz.default_specs)

let test_spec_parse_errors () =
  let base =
    {|{"schema":"acfc-wirgen/1","name":"t","mix":{"cyclic":1},"files":[1,2],"file_blocks":[8,16],"passes":[2,3],"locality":0.25,"advise":0.5}|}
  in
  ignore (ok (Wirgen.of_string base));
  let replace ~old ~new_ =
    let rec go i =
      if i + String.length old > String.length base then
        Alcotest.fail ("substring not found: " ^ old)
      else if String.sub base i (String.length old) = old then
        String.sub base 0 i ^ new_
        ^ String.sub base
            (i + String.length old)
            (String.length base - i - String.length old)
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (json, msg) -> expect_error msg (Wirgen.of_string json))
    [
      ( replace ~old:{|"advise":0.5}|} ~new_:{|"advise":0.5,"zzz":1}|},
        {|wirgen: unknown field "zzz" at $|} );
      ( replace ~old:{|{"cyclic":1}|} ~new_:{|{"ziggurat":1}|},
        {|wirgen: unknown pattern "ziggurat" (expected sequential, cyclic, hot_cold, random or access_once) at $.mix|}
      );
      ( replace ~old:{|{"cyclic":1}|} ~new_:{|{"cyclic":1,"cyclic":2}|},
        {|wirgen: duplicate pattern "cyclic" at $.mix|} );
      ( replace ~old:{|"acfc-wirgen/1"|} ~new_:{|"acfc-wirgen/9"|},
        {|wirgen: unsupported schema "acfc-wirgen/9" (expected acfc-wirgen/1) at $.schema|}
      );
      ( replace ~old:{|"files":[1,2],|} ~new_:"",
        {|wirgen: missing required field "files" at $|} );
      ( replace ~old:{|"files":[1,2]|} ~new_:{|"files":"many"|},
        {|wirgen: expected a [min, max] pair of integers at $.files|} );
      ( replace ~old:{|"files":[1,2]|} ~new_:{|"files":[1.5,2]|},
        {|wirgen: expected a [min, max] pair of integers at $.files|} );
      ( replace ~old:{|"files":[1,2]|} ~new_:{|"files":[1,"x"]|},
        {|wirgen: expected a [min, max] pair of integers at $.files|} );
      ( replace ~old:{|"files":[1,2]|} ~new_:{|"files":[1,2,3]|},
        {|wirgen: expected a [min, max] pair of integers at $.files|} );
      ( replace ~old:{|"locality":0.25|} ~new_:{|"locality":"low"|},
        {|wirgen: expected a number at $.locality|} );
      ( replace ~old:{|"files":[1,2]|} ~new_:{|"files":[0,2]|},
        {|wirgen: file count minimum must be at least 1 at $.files|} );
    ]

(* {2 Generator determinism} *)

let test_generate_deterministic () =
  List.iter
    (fun spec ->
      let a = Wirgen.generate spec ~seed:42 in
      let b = Wirgen.generate spec ~seed:42 in
      chk_str "same spec+seed, same JSON" (Wir.to_string a) (Wir.to_string b);
      chk_str "same spec+seed, same hash" (Wir.hash a) (Wir.hash b);
      let c = Wirgen.generate spec ~seed:43 in
      chk_bool "different seed, different program" true (Wir.to_string a <> Wir.to_string c))
    Fuzz.default_specs

let test_corpus_convention () =
  let members = Wirgen.corpus Wirgen.default ~seed:100 ~count:5 in
  chk_int "corpus size" 5 (List.length members);
  List.iteri
    (fun i p ->
      chk_str "member i = generate (seed + i)"
        (Wir.hash (Wirgen.generate Wirgen.default ~seed:(100 + i)))
        (Wir.hash p))
    members;
  let names = List.map (fun p -> p.Wir.name) members in
  chk_int "member names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* {2 The rejection classes the corrupting mutators target}

   One pinned diagnostic per class, so a fuzz-found corruption always
   maps to a stable message. *)

let test_rejection_classes () =
  let prog ops = Wir.make ~name:"t" ~category:"test" ops in
  (* Slot discipline: referencing a never-opened slot. *)
  expect_error "wir: file 0 is not open (0 files opened so far) at $.ops[0]"
    (Wir.validate (prog [ Wir.read ~file:0 ~first:0 ~count:1 () ]));
  (* Slot discipline: Open inside a loop. *)
  expect_error "wir: open is not allowed inside loop or choice at $.ops[0].body[0]"
    (Wir.validate
       (prog [ Wir.loop 2 [ Wir.open_file ~name:"f" ~size_blocks:1 () ] ]));
  (* Extent out of range. *)
  expect_error "wir: read of blocks [0, 20) exceeds file 0's 10-block extent at $.ops[1]"
    (Wir.validate
       (prog
          [
            Wir.open_file ~name:"f" ~size_blocks:10 ();
            Wir.read ~file:0 ~first:0 ~count:20 ();
          ]));
  (* Out-of-range probability. *)
  expect_error "wir: prob must be between 0 and 1 at $.ops[0]"
    (Wir.validate (prog [ Wir.choice ~prob:1.5 [ Wir.compute 0.0 ] [] ]));
  (* Bad enum (parse level). *)
  expect_error {|wir: unknown policy "fifo" (expected lru or mru) at $.ops[1].policy|}
    (Wir.of_string
       {|{"schema":"acfc-wir/1","name":"t","category":"c","ops":[{"op":"open","name":"f","size_blocks":1},{"op":"advise","kind":"policy","prio":0,"policy":"fifo"}]}|});
  (* Unknown field (parse level). *)
  expect_error {|wir: unknown field "cnt" at $.ops[1]|}
    (Wir.of_string
       {|{"schema":"acfc-wir/1","name":"t","category":"c","ops":[{"op":"open","name":"f","size_blocks":1},{"op":"read","file":0,"first":0,"count":1,"cnt":2}]}|})

let test_mutators_deterministic_classes () =
  (* Every corruption class the mutators can draw is actually rejected
     with a $.path diagnostic, on a real generated program. *)
  let p = Wirgen.generate Wirgen.default ~seed:7 in
  for k = 0 to 63 do
    let rng = Rng.create k in
    let bad = Mutate.corrupt ~rng p in
    (match Wir.validate bad with
    | Ok () -> Alcotest.fail "corrupt mutant passed validate"
    | Error e -> chk_bool "semantic diagnostic has a path" true (contains_sub ~sub:"$." e));
    let rng = Rng.create k in
    let badj = Mutate.corrupt_json ~rng (Wir.to_json p) in
    (match Wir.of_json badj with
    | Ok _ -> Alcotest.fail "corrupt JSON passed of_json"
    | Error e -> chk_bool "syntactic diagnostic has a path" true (contains_sub ~sub:"$" e));
    let rng = Rng.create k in
    match Wir.validate (Mutate.preserve ~rng p) with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("preserving mutant rejected: " ^ e)
  done

(* {2 The quick fuzz pass} *)

let test_quick_fuzz () =
  let stats, failures =
    Fuzz.run ~specs:Fuzz.default_specs ~seed:1000 ~programs:35 ~mutants:4 ()
  in
  (match failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.fail
      (Printf.sprintf "%d fuzz failure(s); first: spec %s seed %d [%s] %s"
         (List.length failures) f.Fuzz.spec_name f.Fuzz.seed f.Fuzz.invariant
         f.Fuzz.detail));
  chk_int "programs generated" (35 * List.length Fuzz.default_specs) stats.Fuzz.generated;
  chk_bool "≥ 1000 generated/mutated programs" true
    (stats.Fuzz.generated + stats.Fuzz.mutated >= 1000);
  chk_int "all five pattern families exercised" 5
    (List.length stats.Fuzz.by_category);
  List.iter
    (fun cat ->
      chk_bool ("family present: " ^ cat) true
        (List.mem_assoc cat stats.Fuzz.by_category))
    [ "sequential"; "cyclic"; "hot/cold"; "random"; "access-once" ]

(* {2 Generated corpora as scenarios} *)

let test_scenario_integration () =
  let sc = Wirgen.scenario Wirgen.default ~seed:5 ~count:3 in
  chk_int "one workload per corpus member" 3 (List.length sc.Scenario.workloads);
  chk_int "corpus seed is the scenario seed" 5 sc.Scenario.seed;
  let sc' = ok (Scenario.of_string (Scenario.to_string sc)) in
  chk_str "generated scenario round-trips" (Scenario.hash sc) (Scenario.hash sc');
  let r = Scenario.run sc in
  chk_bool "corpus scenario runs to completion" true
    (r.Acfc_workload.Runner.makespan > 0.0);
  chk_int "one result per corpus member" 3
    (List.length r.Acfc_workload.Runner.apps)

let suites =
  [
    ( "wirgen",
      [
    case "default specs validate" test_default_specs_valid;
    case "spec validate: pinned diagnostics" test_spec_validate_errors;
    case "spec codec round-trip" test_spec_roundtrip;
    case "spec parse: pinned diagnostics" test_spec_parse_errors;
    case "generate is bit-reproducible" test_generate_deterministic;
    case "corpus follows the seed+i convention" test_corpus_convention;
    case "rejection classes: pinned diagnostics" test_rejection_classes;
    case "mutators: every class behaves" test_mutators_deterministic_classes;
        case "quick fuzz: four invariants, five families" test_quick_fuzz;
        case "generated corpus scenario" test_scenario_integration;
      ] );
  ]
