module Wir = Acfc_wir.Wir
module Rng = Acfc_sim.Rng
module Json = Acfc_obs.Json
module Config = Acfc_core.Config
module Block = Acfc_core.Block
module Scenario = Acfc_scenario.Scenario
module Recorder = Acfc_replacement.Recorder

type failure = {
  spec_name : string;
  seed : int;
  invariant : string;
  detail : string;
  program : string option;
}

type stats = {
  generated : int;
  mutated : int;
  checks : int;
  by_category : (string * int) list;
}

let default_specs =
  List.map
    (fun p ->
      {
        Wirgen.default with
        Wirgen.name = Wirgen.pattern_to_string p;
        mix = [ (p, 1.0) ];
      })
    Wirgen.patterns
  @ [ Wirgen.default ]

let long_specs =
  List.map
    (fun s ->
      { s with Wirgen.files = (1, 8); file_blocks = (16, 256); passes = (2, 8) })
    default_specs

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A small machine for one program: the paper's disks, a cache small
   enough (128 blocks ~ 1 MB) that generated working sets overflow it
   and replacement actually runs. *)
let scenario_of p ~seed =
  Scenario.make ~seed ~cache_blocks:128 ~alloc_policy:Config.Lru_sp
    [ Scenario.inline_workload ~smart:(Wirgen.has_advice p) ~disk:0 p ]

(* Invariants 1 and 2: run the program on a real machine, then check
   the recorded demand stream against the fast-forwarded one. *)
let check_exec_and_references p ~seed =
  let sc = scenario_of p ~seed in
  match
    let recorder = Recorder.create () in
    let (_ : Acfc_workload.Runner.t) = Scenario.run ~obs:(Recorder.sink recorder) sc in
    Acfc_replacement.Refstream.demand (Recorder.stream recorder)
  with
  | exception e -> Error ("valid-exec", "exec raised: " ^ Printexc.to_string e)
  | recorded -> (
    match Scenario.workload_rngs sc with
    | [] | exception _ -> Error ("references", "no workload rng")
    | rng :: _ -> (
      match Wir.references ~rng p with
      | exception e -> Error ("references", "references raised: " ^ Printexc.to_string e)
      | expected ->
        if Array.length expected <> Array.length recorded then
          Error
            ( "references",
              Printf.sprintf "stream length %d, references gives %d"
                (Array.length recorded) (Array.length expected) )
        else (
          let bad = ref None in
          Array.iteri
            (fun i b ->
              if !bad = None && not (Block.equal b recorded.(i)) then bad := Some i)
            expected;
          match !bad with
          | None -> Ok ()
          | Some i ->
            Error
              ( "references",
                Printf.sprintf "streams diverge at reference %d: run saw %s, references gives %s"
                  i
                  (Format.asprintf "%a" Block.pp recorded.(i))
                  (Format.asprintf "%a" Block.pp expected.(i)) ))))

(* Invariant 3: the codec is the identity and the fingerprint is
   stable; a preserving mutant stays valid. *)
let check_roundtrip p ~mrng =
  let doc = Wir.to_string p in
  match Wir.of_string doc with
  | Error e -> Error ("roundtrip", "re-parse failed: " ^ e)
  | Ok p' ->
    if p' <> p then Error ("roundtrip", "re-parsed program differs")
    else if Wir.to_string p' <> doc then Error ("roundtrip", "re-printed JSON differs")
    else if Wir.hash p' <> Wir.hash p then Error ("roundtrip", "hash not stable")
    else (
      let kept = Mutate.preserve ~rng:mrng p in
      match Wir.validate kept with
      | Ok () -> Ok ()
      | Error e -> Error ("roundtrip", "preserving mutant rejected: " ^ e))

(* Invariant 4: corruptions are rejected, and the diagnostic points at
   a path. *)
let check_reject p ~mrng ~semantic =
  if semantic then (
    let bad = Mutate.corrupt ~rng:mrng p in
    match Wir.validate bad with
    | Ok () -> Error ("reject", "corrupt program passed validate", Some (Wir.to_string bad))
    | Error e ->
      if contains_sub e "$." then Ok ()
      else Error ("reject", "diagnostic has no $.path: " ^ e, Some (Wir.to_string bad)))
  else (
    let bad = Mutate.corrupt_json ~rng:mrng (Wir.to_json p) in
    let doc = Json.to_string bad in
    match Wir.of_json bad with
    | Ok _ -> Error ("reject", "corrupt JSON passed of_json", Some doc)
    | Error e ->
      if contains_sub e "$" then Ok ()
      else Error ("reject", "diagnostic has no $.path: " ^ e, Some doc))

let run ?progress ~specs ~seed ~programs ~mutants () =
  let failures = ref [] in
  let generated = ref 0 and mutated = ref 0 and checks = ref 0 in
  let by_category = Hashtbl.create 8 in
  let fail spec_name seed invariant detail program =
    failures := { spec_name; seed; invariant; detail; program } :: !failures
  in
  List.iter
    (fun spec ->
      (match progress with
      | Some f -> f (Printf.sprintf "fuzzing spec %s" spec.Wirgen.name)
      | None -> ());
      for i = 0 to programs - 1 do
        let pseed = seed + i in
        match Wirgen.generate spec ~seed:pseed with
        | exception e ->
          incr checks;
          fail spec.Wirgen.name pseed "valid-exec"
            ("generate raised: " ^ Printexc.to_string e)
            None
        | p ->
          incr generated;
          Hashtbl.replace by_category p.Wir.category
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_category p.Wir.category));
          let record = function
            | Ok () -> incr checks
            | Error (invariant, detail) ->
              incr checks;
              fail spec.Wirgen.name pseed invariant detail (Some (Wir.to_string p))
          in
          (match Wir.validate p with
          | Ok () -> record (check_exec_and_references p ~seed:pseed)
          | Error e ->
            incr checks;
            fail spec.Wirgen.name pseed "valid-exec" ("generated program invalid: " ^ e)
              (Some (Wir.to_string p)));
          (* Mutant draws come from a per-program stream, so each
             program's cases replay from (spec, seed) alone. *)
          let mrng = Rng.create ((pseed * 31) + 7) in
          incr mutated;
          record (check_roundtrip p ~mrng);
          for m = 0 to mutants - 1 do
            incr mutated;
            incr checks;
            match check_reject p ~mrng ~semantic:(m mod 2 = 0) with
            | Ok () -> ()
            | Error (invariant, detail, doc) -> fail spec.Wirgen.name pseed invariant detail doc
          done
      done)
    specs;
  let by_category =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_category [])
  in
  ( { generated = !generated; mutated = !mutated; checks = !checks; by_category },
    List.rev !failures )
