(* acfc-run: command-line driver for the application-controlled file
   caching simulator.

   Subcommands:
     run        one or more applications over a shared cache
     scenario   run a machine description from an acfc-scenario/1 file
     workload   dump / validate / replay / list workload IR programs
     wirgen     generate seeded synthetic workloads and fuzz the toolchain
     report     regenerate the paper's tables and figures
     record     run applications and record the block reference trace
     policies   trace-driven replacement-policy comparison
     policy     inspect the unified replacement-policy registry
     store      the content-addressed artifact store (add/get/list/verify/gc)
     monitor    tail a live run's metrics stream (acfc-monitor/1 JSONL) *)

open Cmdliner
module Config = Acfc_core.Config
module Runner = Acfc_workload.Runner
module Scenario = Acfc_scenario.Scenario
module Catalog = Acfc_scenario.Catalog
module Wir = Acfc_wir.Wir
module Wirgen = Acfc_wirgen.Wirgen
module Fuzz = Acfc_wirgen.Fuzz
module Report = Acfc_experiments.Report
module Obs = Acfc_obs
module Store = Acfc_store.Store
module Kind = Acfc_store.Kind
module Manifest = Acfc_store.Manifest

(* {2 Shared arguments} *)

let cache_mb =
  let doc = "Buffer cache size in MB (the paper uses 6.4, 8, 12, 16)." in
  Arg.(value & opt float 6.4 & info [ "c"; "cache-mb" ] ~docv:"MB" ~doc)

let policy =
  let parse s =
    match Config.alloc_policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg ("unknown allocation policy: " ^ s))
  in
  let print ppf p = Config.pp_alloc_policy ppf p in
  Arg.conv (parse, print)

let alloc_policy =
  let doc =
    "Kernel allocation policy: global-lru (the original kernel), alloc-lru, \
     lru-s, or lru-sp."
  in
  Arg.(value & opt policy Config.Lru_sp & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let seed =
  let doc = "Random seed (runs are deterministic for a given seed)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let runs =
  let doc = "Cold-start runs to average per data point." in
  Arg.(value & opt int 3 & info [ "r"; "runs" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Run independent simulations on $(docv) domains in parallel. Results are \
     byte-identical to a sequential run. Defaults to \\$ACFC_JOBS (use \
     'auto' there for one per core), else 1."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let capacity =
  let doc = "Cache capacity in blocks." in
  Arg.(value & opt int 819 & info [ "capacity" ] ~docv:"N" ~doc)

let dump_scenario =
  let doc =
    "Also save the run's machine description as an acfc-scenario/1 JSON file \
     to $(docv), replayable with $(b,acfc-run scenario). The run itself \
     proceeds unchanged."
  in
  Arg.(value & opt (some string) None & info [ "dump-scenario" ] ~docv:"FILE" ~doc)

(* {2 Artifact store plumbing} *)

let store_env = Cmd.Env.info "ACFC_STORE" ~doc:"Default artifact store directory."

let store_dir =
  let doc =
    "Content-addressed artifact store directory (created if missing). \
     Commands that produce artifacts ingest them here; $(b,acfc-run store) \
     inspects it."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~env:store_env ~docv:"DIR" ~doc)

let open_store_opt = function
  | None -> None
  | Some dir ->
    (match Store.open_ dir with
    | Ok s -> Some s
    | Error msg ->
      prerr_endline ("acfc-run: " ^ msg);
      exit 1)

let open_store_req = function
  | Some dir ->
    (match Store.open_ dir with
    | Ok s -> s
    | Error msg ->
      prerr_endline ("acfc-run: " ^ msg);
      exit 1)
  | None ->
    prerr_endline
      "acfc-run: no store directory (pass --store DIR or set ACFC_STORE)";
    exit 1

let report_outcome ppf what = function
  | Store.Created e ->
    Format.fprintf ppf "%s: stored %s/%s (%d bytes)@." what
      (Kind.to_string e.Manifest.kind) e.Manifest.digest e.Manifest.bytes
  | Store.Exists e ->
    Format.fprintf ppf "%s: already stored as %s/%s@." what
      (Kind.to_string e.Manifest.kind) e.Manifest.digest

(* Implicit ingestion (a run that also happens to carry --store) is a
   status notice: stderr, so golden stdout comparisons stay exact. *)
let ingest_or_die ?(ppf = Format.err_formatter) what = function
  | Ok outcome -> report_outcome ppf what outcome
  | Error msg ->
    prerr_endline ("acfc-run: " ^ msg);
    exit 1

(* Ingest a scenario's canonical bytes under its hash label. *)
let ingest_scenario store scenario =
  let hash = Scenario.hash scenario in
  ingest_or_die "scenario"
    (Store.add store ~kind:Kind.Scenario ~label:("scenario:" ^ hash) ~expect:hash
       (Scenario.to_string scenario))

(* {2 Live monitoring plumbing} *)

let monitor_out =
  let doc =
    "Stream metrics snapshots to $(docv) as acfc-monitor/1 JSON Lines while \
     the run executes; tail it live with $(b,acfc-run monitor) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "monitor" ] ~docv:"FILE" ~doc)

let monitor_every =
  let doc = "Seconds of simulated time between monitor snapshots." in
  Arg.(value & opt float 1.0 & info [ "monitor-every" ] ~docv:"SECONDS" ~doc)

(* {2 run} *)

let app_names =
  let doc =
    "Applications to run concurrently. Available: "
    ^ String.concat ", " Catalog.app_names
    ^ ", plus readN and readN! (oblivious / foolish-MRU ReadN, e.g. read300!)."
  in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"APP" ~doc)

let oblivious =
  let doc = "Run the applications without their caching strategies." in
  Arg.(value & flag & info [ "oblivious" ] ~doc)

let trace_out =
  let doc =
    "Write a structured event trace to $(docv): every cache hit, miss, \
     eviction, swap, placeholder transition, fbehavior call, syscall and \
     disk I/O, stamped with simulated time. JSON Lines by default; a \
     $(b,.csv) suffix selects CSV."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Write a JSON metrics snapshot (counters, gauges, latency histograms) \
     taken at the end of the run to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Every file a command writes is opened before its simulation starts,
   so an unwritable path costs no run: one line on stderr and exit 1,
   not cmdliner's 125 for an uncaught exception. *)
let writing f =
  try f ()
  with Sys_error msg ->
    prerr_endline ("acfc-run: cannot write " ^ msg);
    exit 1

let open_output path = writing (fun () -> open_out path)

(* Build the sink for the scenario's trace/metrics outputs, opening
   both files now; returns the sink and a [finish] closure that writes
   the metrics snapshot and closes the channels. *)
let make_obs (spec : Scenario.obs_spec) =
  match (spec.trace_path, spec.metrics_path) with
  | None, None -> (None, fun () -> ())
  | trace_out, metrics_out ->
    let trace = Option.map (fun path -> (path, open_output path)) trace_out in
    let metrics = Option.map (fun path -> (path, open_output path)) metrics_out in
    let backend =
      match trace with
      | None -> Obs.Sink.Null
      | Some (path, oc) ->
        if Filename.check_suffix path ".csv" then Obs.Sink.Csv oc else Obs.Sink.Jsonl oc
    in
    let sink = Obs.Sink.create ~backend () in
    let finish () =
      (match metrics with
      | None -> ()
      | Some (path, oc) ->
        let snapshot =
          Obs.Metrics.snapshot (Obs.Sink.metrics sink) ~now:(Obs.Sink.now sink)
        in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
            output_string oc (Obs.Json.to_string snapshot);
            output_char oc '\n');
        Format.printf "metrics: snapshot -> %s@." path);
      (match trace with
      | Some (path, oc) ->
        Obs.Sink.flush sink;
        close_out oc;
        Format.printf "trace: %d events -> %s@." (Obs.Sink.emitted sink) path
      | None -> ())
    in
    (Some sink, finish)

let maybe_dump scenario = function
  | None -> ()
  | Some path -> writing (fun () -> Scenario.save scenario path)

(* Monitoring needs a live metrics registry: keep the scenario's own
   sink when it has one, otherwise conjure a Null-backend sink that
   exists only to be sampled. *)
let wire_monitor scenario obs = function
  | None -> (obs, None)
  | Some (path, every) ->
    let obs =
      match obs with
      | Some _ -> obs
      | None -> Some (Obs.Sink.create ~backend:Obs.Sink.Null ())
    in
    let producer =
      writing (fun () ->
          Obs.Monitor.producer ~path
            ~info:[ ("scenario", Obs.Json.Str (Scenario.hash scenario)) ]
            ())
    in
    Format.eprintf "monitor: streaming snapshots -> %s@." path;
    (obs, Some (producer, every))

(* Execute a scenario exactly as [run] does: wire its trace/metrics
   outputs, run, print the per-app results and the cache summary. *)
let execute_scenario ?monitor scenario =
  let obs, finish_obs = make_obs scenario.Scenario.obs in
  let obs, monitor = wire_monitor scenario obs monitor in
  let result = Scenario.run ?obs ?monitor scenario in
  Format.printf "%a" Runner.pp result;
  Format.printf
    "cache: %d hits, %d misses; %d overrules, %d placeholders (%d used)@."
    result.Runner.cache_hits result.Runner.cache_misses result.Runner.overrules
    result.Runner.placeholders_created result.Runner.placeholders_used;
  finish_obs ();
  result

(* Execute a fleet scenario through the domain-parallel fleet engine:
   the report is byte-identical at every [jobs] value, so the golden
   smoke can diff --jobs 1 against --jobs 4. *)
let execute_fleet ?jobs ?monitor scenario =
  let obs, finish_obs = make_obs scenario.Scenario.obs in
  let obs, monitor = wire_monitor scenario obs monitor in
  let report = Acfc_fleet.Fleet.run ?jobs ?obs ?monitor scenario in
  Format.printf "%a" Acfc_fleet.Fleet.pp report;
  finish_obs ();
  report

let cli_workloads ~oblivious names =
  List.map
    (fun name ->
      let smart = if oblivious then Some false else None in
      try Scenario.workload ?smart name
      with Invalid_argument msg -> failwith msg)
    names

let run_cmd =
  let go cache_mb alloc_policy seed oblivious trace_out metrics_out dump store
      monitor_path monitor_every names =
    let scenario =
      Scenario.make ~seed ~cache_blocks:(Scenario.blocks_of_mb cache_mb)
        ~alloc_policy
        ~obs:{ Scenario.trace_path = trace_out; metrics_path = metrics_out }
        (cli_workloads ~oblivious names)
    in
    maybe_dump scenario dump;
    Option.iter (fun s -> ingest_scenario s scenario) (open_store_opt store);
    let monitor = Option.map (fun path -> (path, monitor_every)) monitor_path in
    ignore (execute_scenario ?monitor scenario)
  in
  let term =
    Term.(
      const go $ cache_mb $ alloc_policy $ seed $ oblivious $ trace_out $ metrics_out
      $ dump_scenario $ store_dir $ monitor_out $ monitor_every $ app_names)
  in
  let info =
    Cmd.info "run" ~doc:"Run applications over the application-controlled cache"
  in
  Cmd.v info term

(* {2 scenario} *)

let scenario_file =
  let doc = "An acfc-scenario/1 JSON machine description." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let inline_flag =
  let doc =
    "Replace every named workload by the inline IR program it compiles to \
     before running (and before $(b,--dump-scenario)), so the machine \
     description carries its workloads whole instead of referencing the \
     catalog. The run itself is identical by construction."
  in
  Arg.(value & flag & info [ "inline" ] ~doc)

let check_flag =
  let doc =
    "Parse and statically check the file through the strict parser, print its \
     fingerprint and workload count, and exit without running. Non-zero exit \
     on any rejection, with the offending $(b,\\$.path)."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let scenario_cmd =
  let go dump inline check jobs store monitor_out monitor_every file =
    match Scenario.load file with
    | Error msg ->
      prerr_endline ("acfc-run: " ^ msg);
      exit 1
    | Ok scenario ->
      let scenario = if inline then Scenario.inline_workloads scenario else scenario in
      if check then begin
        Format.printf "%s: ok; %d workloads, %d disks; hash %s@." file
          (List.length scenario.Scenario.workloads)
          (List.length scenario.Scenario.disks)
          (Scenario.hash scenario);
        match scenario.Scenario.fleet with
        | None -> ()
        | Some f ->
          Format.printf "fleet: %d clients, %d shared files, lookahead %g ms@."
            f.Scenario.clients f.Scenario.shared_files
            (Scenario.fleet_lookahead_ms f)
      end
      else begin
        maybe_dump scenario dump;
        Option.iter (fun s -> ingest_scenario s scenario) (open_store_opt store);
        let monitor = Option.map (fun path -> (path, monitor_every)) monitor_out in
        match scenario.Scenario.fleet with
        | Some _ -> ignore (execute_fleet ?jobs ?monitor scenario)
        | None -> ignore (execute_scenario ?monitor scenario)
      end
  in
  let term =
    Term.(
      const go $ dump_scenario $ inline_flag $ check_flag $ jobs $ store_dir
      $ monitor_out $ monitor_every $ scenario_file)
  in
  let info =
    Cmd.info "scenario"
      ~doc:"Run a complete machine description from a scenario file"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Loads an $(b,acfc-scenario/1) JSON file — cache configuration, \
             allocation policy, disks and their schedulers, workloads, seed, \
             observability outputs — assembles exactly that machine and runs \
             it. Workloads name a catalog application ($(b,\"app\")) or carry \
             an inline $(b,acfc-wir/1) program ($(b,\"program\")). Produce \
             such files by hand (see docs/TUTORIAL.md), from \
             $(b,examples/scenarios/), or with $(b,--dump-scenario) on \
             $(b,acfc-run run). Unknown fields are rejected with their path. \
             A scenario with a $(b,fleet) section replicates the machine \
             into N clients in front of a shared server cache and runs the \
             domain-parallel fleet engine; $(b,--jobs) picks the worker \
             count without changing a byte of the report.";
        ]
  in
  Cmd.v info term

(* {2 workload} *)

(* A workload IR source: a catalog application name, or a file holding
   an acfc-wir/1 JSON document. *)
let load_program src =
  if Sys.file_exists src then Wir.load src
  else
    match Catalog.resolve src with
    | Error msg -> Error ("workload: " ^ msg)
    | Ok entry ->
      (match Acfc_workload.App.program entry.Catalog.app with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "workload: application %S is not an IR program" src))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("acfc-run: " ^ msg);
    exit 1

let workload_src =
  let doc = "A catalog application name (cs1, din, read300!, …) or an acfc-wir/1 JSON file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP|FILE" ~doc)

let workload_dump_cmd =
  let out =
    let doc = "Write the program here instead of standard output." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let file_blocks =
    let doc = "Backing-file size in blocks for the readN family." in
    Arg.(value & opt (some int) None & info [ "file-blocks" ] ~docv:"N" ~doc)
  in
  let go file_blocks out src =
    let program =
      if Sys.file_exists src then or_die (Wir.load src)
      else
        or_die
          (match Catalog.resolve ?file_blocks src with
          | Error msg -> Error ("workload: " ^ msg)
          | Ok entry ->
            (match Acfc_workload.App.program entry.Catalog.app with
            | Some p -> Ok p
            | None ->
              Error (Printf.sprintf "workload: application %S is not an IR program" src)))
    in
    match out with
    | Some path -> Wir.save program path
    | None -> print_endline (Wir.to_string program)
  in
  let term = Term.(const go $ file_blocks $ out $ workload_src) in
  let info =
    Cmd.info "dump" ~doc:"Write a workload's IR program as canonical acfc-wir/1 JSON"
  in
  Cmd.v info term

let describe_program program =
  let refs = Wir.references program in
  let distinct = Hashtbl.create 1024 in
  Array.iter (fun b -> Hashtbl.replace distinct b ()) refs;
  Format.printf "%s (%s): valid; %d ops, %d files, %d demand references over %d blocks@."
    program.Wir.name program.Wir.category (Wir.op_count program)
    (Wir.file_count program) (Array.length refs) (Hashtbl.length distinct)

let workload_validate_cmd =
  let go src =
    let program = or_die (load_program src) in
    match Wir.validate program with
    | Error msg ->
      prerr_endline ("acfc-run: " ^ msg);
      exit 1
    | Ok () -> describe_program program
  in
  let term = Term.(const go $ workload_src) in
  let info =
    Cmd.info "validate"
      ~doc:"Parse and statically check a workload IR program, then summarise it"
  in
  Cmd.v info term

let workload_replay_cmd =
  let go capacity seed jobs src =
    let program = or_die (load_program src) in
    let trace = Wir.references ~rng:(Acfc_sim.Rng.create seed) program in
    Format.printf "trace: %a@." Acfc_replacement.Trace.pp_summary trace;
    Acfc_par.Pool.map ?jobs
      (fun policy -> Acfc_replacement.Policy_sim.run policy ~capacity trace)
      Acfc_policy.Registry.all
    |> List.iter (fun result ->
           Format.printf "%a@." Acfc_replacement.Policy_sim.pp_result result)
  in
  let term = Term.(const go $ capacity $ seed $ jobs $ workload_src) in
  let info =
    Cmd.info "replay"
      ~doc:
        "Fast-forward a workload program's demand reference stream (no disks, no \
         engine) and compare replacement policies on it"
  in
  Cmd.v info term

let workload_list_cmd =
  let go () =
    List.iter print_endline (List.sort String.compare Catalog.app_names)
  in
  let term = Term.(const go $ const ()) in
  let info =
    Cmd.info "list"
      ~doc:
        "Print every catalog application name, one per line (the readN family \
         is parameterised and not listed). CI derives its smoke loops from \
         this, so new applications are covered automatically."
  in
  Cmd.v info term

let workload_cmd =
  let info =
    Cmd.info "workload"
      ~doc:"Inspect, validate and replay workload IR programs (acfc-wir/1)"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Every catalog application is a typed workload IR program — data, \
             not code. $(b,dump) serialises one (or re-canonicalises a file), \
             $(b,validate) statically checks one and prints its vitals, \
             $(b,replay) fast-forwards its demand reference stream straight \
             into the replacement-policy lab, with no simulated machine in \
             between, and $(b,list) enumerates the catalog.";
        ]
  in
  Cmd.group info
    [ workload_dump_cmd; workload_validate_cmd; workload_replay_cmd; workload_list_cmd ]

(* {2 wirgen} *)

let spec_arg =
  let doc =
    "An acfc-wirgen/1 spec file describing the corpus family (defaults to the \
     built-in default spec, every pattern weighted equally)."
  in
  Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)

let load_spec = function
  | None -> Wirgen.default
  | Some path -> or_die (Wirgen.load path)

let wirgen_gen_cmd =
  let out =
    let doc = "Write the program here instead of standard output." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let go spec seed out store =
    let spec = load_spec spec in
    let program = Wirgen.generate spec ~seed in
    (match open_store_opt store with
    | None -> ()
    | Some s ->
      ingest_or_die "wirgen-spec" (Wirgen.ingest_spec s spec);
      ingest_or_die "wir"
        (Store.add s ~kind:Kind.Wir_program ~expect:(Wir.hash program)
           (Wir.to_string program)));
    match out with
    | Some path ->
      Wir.save program path;
      Format.printf "%s: %s (spec %s, seed %d)@." path (Wir.hash program)
        (Wirgen.hash spec) seed
    | None -> print_endline (Wir.to_string program)
  in
  let term = Term.(const go $ spec_arg $ seed $ out $ store_dir) in
  let info =
    Cmd.info "gen"
      ~doc:
        "Generate one workload program from a spec and a seed. Bit-reproducible: \
         the same spec and seed give identical acfc-wir/1 JSON everywhere."
  in
  Cmd.v info term

let wirgen_corpus_cmd =
  let count =
    let doc = "Corpus size (member $(i,i) uses seed + $(i,i))." in
    Arg.(value & opt int 8 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let dir =
    let doc = "Directory to write the corpus into (created if missing)." in
    Arg.(value & opt string "corpus" & info [ "d"; "dir" ] ~docv:"DIR" ~doc)
  in
  let go spec_file seed count dir store =
    let spec = load_spec spec_file in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let programs =
      match open_store_opt store with
      | None -> Wirgen.corpus spec ~seed ~count
      | Some s ->
        (* Resolve the whole corpus through the store: warm runs decode
           the stored artifact instead of regenerating. *)
        ingest_or_die "wirgen-spec" (Wirgen.ingest_spec s spec);
        let programs, origin = or_die (Wirgen.stored_corpus s spec ~seed ~count) in
        (match origin with
        | `Loaded digest -> Format.printf "corpus: loaded from store (%s)@." digest
        | `Generated digest ->
          Format.printf "corpus: generated and stored (%s)@." digest);
        programs
    in
    List.iter
      (fun program ->
        let path = Filename.concat dir (program.Wir.name ^ ".json") in
        Wir.save program path;
        Format.printf "%s  %s@." (Wir.hash program) path)
      programs;
    Format.printf "corpus: %d programs; spec %s (%s), seed %d@." count spec.Wirgen.name
      (Wirgen.hash spec) seed
  in
  let term = Term.(const go $ spec_arg $ seed $ count $ dir $ store_dir) in
  let info =
    Cmd.info "corpus"
      ~doc:
        "Generate a reproducible corpus of workload programs from a spec file \
         and a base seed, one acfc-wir/1 file per member"
  in
  Cmd.v info term

let wirgen_fuzz_cmd =
  let programs =
    let doc =
      "Programs to generate per spec (default 35, or 3000 with $(b,--long))."
    in
    Arg.(value & opt (some int) None & info [ "programs" ] ~docv:"N" ~doc)
  in
  let mutants =
    let doc =
      "Corrupting mutants per program (default 4, or 10 with $(b,--long))."
    in
    Arg.(value & opt (some int) None & info [ "mutants" ] ~docv:"N" ~doc)
  in
  let long =
    let doc = "Long mode: the scheduled-CI budget (minutes, not seconds)." in
    Arg.(value & flag & info [ "long" ] ~doc)
  in
  let failures_dir =
    let doc =
      "Write every failing case into $(docv) (created if missing): the \
       offending document plus a failures.jsonl with spec, seed and invariant \
       — enough to replay locally with $(b,wirgen gen --seed)."
    in
    Arg.(value & opt (some string) None & info [ "failures" ] ~docv:"DIR" ~doc)
  in
  let go spec_file seed programs mutants long failures_dir =
    let specs =
      match spec_file with
      | Some _ -> [ load_spec spec_file ]
      | None -> if long then Fuzz.long_specs else Fuzz.default_specs
    in
    let programs = match programs with Some n -> n | None -> if long then 3000 else 35 in
    let mutants = match mutants with Some n -> n | None -> if long then 10 else 4 in
    let stats, failures =
      Fuzz.run ~progress:(Format.eprintf "wirgen: %s@.") ~specs ~seed ~programs
        ~mutants ()
    in
    Format.printf "fuzz: %d generated, %d mutated, %d checks over %d specs@."
      stats.Fuzz.generated stats.Fuzz.mutated stats.Fuzz.checks (List.length specs);
    List.iter
      (fun (category, n) -> Format.printf "  %-12s %d@." category n)
      stats.Fuzz.by_category;
    (match (failures, failures_dir) with
    | [], _ -> ()
    | failures, dir ->
      (match dir with
      | None -> ()
      | Some dir -> (try Sys.mkdir dir 0o755 with Sys_error _ -> ()));
      let jsonl =
        match dir with
        | None -> None
        | Some d -> Some (open_out (Filename.concat d "failures.jsonl"))
      in
      List.iteri
        (fun i f ->
          Format.eprintf "FAIL [%s] spec %s seed %d: %s@." f.Fuzz.invariant
            f.Fuzz.spec_name f.Fuzz.seed f.Fuzz.detail;
          match dir with
          | None -> ()
          | Some d ->
            let doc_path =
              match f.Fuzz.program with
              | None -> None
              | Some doc ->
                let path = Filename.concat d (Printf.sprintf "failure-%03d.json" i) in
                let oc = open_out path in
                Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
                    output_string oc doc;
                    output_char oc '\n');
                Some path
            in
            let open Obs.Json in
            let row =
              Obj
                ([
                   ("spec", Str f.Fuzz.spec_name);
                   ("seed", Num (float_of_int f.Fuzz.seed));
                   ("invariant", Str f.Fuzz.invariant);
                   ("detail", Str f.Fuzz.detail);
                 ]
                @ match doc_path with None -> [] | Some p -> [ ("program", Str p) ])
            in
            Option.iter
              (fun oc ->
                output_string oc (to_string row);
                output_char oc '\n')
              jsonl)
        failures;
      Option.iter close_out jsonl;
      Format.eprintf "fuzz: %d failure(s)@." (List.length failures);
      exit 1)
  in
  let term =
    Term.(const go $ spec_arg $ seed $ programs $ mutants $ long $ failures_dir)
  in
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Property-fuzz the wir toolchain: generated programs must validate and \
         execute, their fast-forwarded reference stream must equal the recorded \
         demand stream, the codec must round-trip, and corrupted programs must \
         be rejected with a \\$.path diagnostic"
  in
  Cmd.v info term

let wirgen_cmd =
  let info =
    Cmd.info "wirgen"
      ~doc:"Generate seeded synthetic workloads and fuzz the wir toolchain"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "The paper evaluates eight hand-ported applications; $(b,wirgen) \
             draws unlimited fresh-but-plausible ones instead, from a typed \
             acfc-wirgen/1 spec: a pattern mix over the paper's access-pattern \
             taxonomy (sequential, cyclic, hot/cold, random, access-once), \
             file-count/size/pass budgets, and a smart-vs-oblivious advise \
             density. Generation is deterministic — a committed spec plus a \
             seed reproduces a corpus bit-for-bit — and $(b,fuzz) turns the \
             generator on the toolchain itself.";
        ]
  in
  Cmd.group info [ wirgen_gen_cmd; wirgen_corpus_cmd; wirgen_fuzz_cmd ]

(* {2 report} *)

(* The names the experiment table lists, each selecting itself, and
   'all' selecting the paper's nine artifacts. *)
let artifact =
  let names = List.map (fun a -> a.Report.name) Report.artifacts in
  let paper =
    List.filter_map
      (fun a -> if a.Report.paper then Some a.name else None)
      Report.artifacts
  in
  let doc =
    "Artifact to regenerate: "
    ^ String.concat ", " names
    ^ ", or 'all' (the paper's nine). See $(b,--list) for descriptions."
  in
  let choices = ("all", paper) :: List.map (fun n -> (n, [ n ])) names in
  Arg.(value & pos 0 (enum choices) paper & info [] ~docv:"ARTIFACT" ~doc)

let quick =
  let doc = "Single run, two cache sizes (fast smoke mode)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let list_experiments =
  let doc = "List runnable experiments with descriptions and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let report_cmd =
  let go runs quick jobs list artifacts =
    if list then
      List.iter
        (fun a -> Format.printf "%-10s %s@." a.Report.name a.doc)
        (List.sort
           (fun a b -> String.compare a.Report.name b.name)
           Report.artifacts)
    else begin
      let opts =
        if quick then Report.quick
        else { Report.default with runs }
      in
      Report.run { opts with jobs } Format.std_formatter artifacts;
      Format.printf "@."
    end
  in
  let term = Term.(const go $ runs $ quick $ jobs $ list_experiments $ artifact) in
  let info = Cmd.info "report" ~doc:"Regenerate the paper's tables and figures" in
  Cmd.v info term

(* {2 record} *)

let record_cmd =
  let out =
    let doc = "Output trace file." in
    Cmdliner.Arg.(value & opt string "acfc.trace" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let go cache_mb alloc_policy seed oblivious out dump store names =
    let recorder = Acfc_replacement.Recorder.create () in
    let scenario =
      Scenario.make ~seed ~cache_blocks:(Scenario.blocks_of_mb cache_mb)
        ~alloc_policy
        (cli_workloads ~oblivious names)
    in
    maybe_dump scenario dump;
    let oc = open_output out in
    let result =
      Scenario.run ~tracer:(Acfc_replacement.Recorder.tracer recorder) scenario
    in
    let stream = Acfc_replacement.Recorder.stream recorder in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        Acfc_replacement.Refstream.save stream oc);
    Format.printf "%a" Runner.pp result;
    Format.printf "recorded %d references to %s@." (Array.length stream) out;
    (* --store: ingest the trace under the recorded scenario's hash so
       consumers (bench, policies --trace-file) can resolve it by label. *)
    match open_store_opt store with
    | None -> ()
    | Some s ->
      ingest_scenario s scenario;
      ingest_or_die "refstream"
        (Store.add s ~kind:Kind.Refstream
           ~label:("refstream:" ^ Scenario.hash scenario)
           (Acfc_replacement.Refstream.render stream))
  in
  let term =
    Term.(
      const go $ cache_mb $ alloc_policy $ seed $ oblivious $ out $ dump_scenario
      $ store_dir $ app_names)
  in
  let info =
    Cmd.info "record" ~doc:"Run applications and record the block reference trace"
  in
  Cmd.v info term

(* {2 policies} *)

let pattern =
  let doc = "Synthetic trace: cyclic, sequential, random, hot-cold or zipf." in
  Arg.(value & opt string "cyclic" & info [ "t"; "trace" ] ~docv:"PATTERN" ~doc)

let blocks =
  let doc = "Working-set size in blocks." in
  Arg.(value & opt int 1200 & info [ "blocks" ] ~docv:"N" ~doc)

let trace_file =
  let doc = "Replay a recorded trace file instead of a synthetic pattern." in
  Arg.(value & opt (some string) None & info [ "f"; "trace-file" ] ~docv:"FILE" ~doc)

(* {2 policy} *)

let policy_list_cmd =
  let go () =
    let module R = Acfc_policy.Registry in
    List.iter
      (fun entry ->
        Format.printf "%-11s %-13s %s@." (R.name entry)
          (if R.needs_future entry then "offline-only" else "offline+live")
          (R.summary entry))
      (List.sort (fun a b -> String.compare (R.name a) (R.name b)) R.all)
  in
  let term = Term.(const go $ const ()) in
  let info =
    Cmd.info "list"
      ~doc:
        "Print the unified policy registry, one line per core: name, whether \
         it can run as a live manager or only in offline replay \
         (clairvoyant cores need the future stream), and a one-line \
         description. These names are what scenario $(b,manager) fields, \
         $(b,acfc-run policies) and the bench tournament accept."
  in
  Cmd.v info term

let policy_cmd =
  let info =
    Cmd.info "policy"
      ~doc:"Inspect the unified replacement-policy registry"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Every replacement core — the eight stock policies and the three \
             adaptive ones — registers once and runs identically as an \
             offline trace-replay policy and (unless clairvoyant) as a live \
             $(b,fbehavior) manager installed through a scenario workload's \
             $(b,manager) field.";
        ]
  in
  Cmd.group info [ policy_list_cmd ]

let policies_cmd =
  let go pattern blocks capacity seed trace_file jobs =
    let rng = Acfc_sim.Rng.create seed in
    let module Trace = Acfc_replacement.Trace in
    let trace =
      match trace_file with
      | Some path ->
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            Acfc_replacement.Refstream.(demand (load ic)))
      | None ->
      match pattern with
      | "cyclic" -> Trace.cyclic ~file:0 ~blocks ~passes:5
      | "sequential" -> Trace.sequential ~file:0 ~blocks
      | "random" -> Trace.random ~rng ~file:0 ~blocks ~length:(5 * blocks)
      | "hot-cold" ->
        Trace.hot_cold ~rng ~hot_file:0 ~hot_blocks:(blocks / 10) ~cold_file:1
          ~cold_blocks:blocks ~hot_fraction:0.9 ~length:(5 * blocks)
      | "zipf" -> Trace.zipf ~rng ~file:0 ~blocks ~skew:1.0 ~length:(5 * blocks)
      | p -> failwith ("unknown trace pattern: " ^ p)
    in
    Format.printf "trace: %a@." Trace.pp_summary trace;
    (* Each policy simulates the (immutable) trace independently; run
       them on the pool and print in the usual order. *)
    Acfc_par.Pool.map ?jobs
      (fun policy -> Acfc_replacement.Policy_sim.run policy ~capacity trace)
      Acfc_policy.Registry.all
    |> List.iter (fun result ->
           Format.printf "%a@." Acfc_replacement.Policy_sim.pp_result result)
  in
  let term =
    Term.(const go $ pattern $ blocks $ capacity $ seed $ trace_file $ jobs)
  in
  let info =
    Cmd.info "policies"
      ~doc:"Compare replacement policies (incl. OPT) on a synthetic or recorded trace"
  in
  Cmd.v info term

(* {2 store} *)

let kind_conv =
  let parse s =
    match Kind.of_string s with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown artifact kind %S (expected one of %s)" s
             (String.concat ", " (List.map Kind.to_string Kind.all))))
  in
  Arg.conv (parse, Kind.pp)

let kind_arg =
  let doc =
    "Artifact kind: " ^ String.concat ", " (List.map Kind.to_string Kind.all) ^ "."
  in
  Arg.(required & opt (some kind_conv) None & info [ "k"; "kind" ] ~docv:"KIND" ~doc)

let label_arg =
  let doc =
    "Also register a resolution label for the entry (e.g. \
     $(b,refstream:<scenario-hash>)). One label maps to one digest; relabelling \
     an existing entry to a different digest is an error."
  in
  Arg.(value & opt (some string) None & info [ "label" ] ~docv:"LABEL" ~doc)

let pp_entry ppf (e : Manifest.entry) =
  Format.fprintf ppf "%4d  %-13s  %s  %8d%s" e.Manifest.seq
    (Kind.to_string e.Manifest.kind)
    e.Manifest.digest e.Manifest.bytes
    (match e.Manifest.label with None -> "" | Some l -> "  " ^ l)

let store_add_cmd =
  let file =
    let doc = "File whose exact bytes to ingest." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let go store kind label file =
    let s = open_store_req store in
    let ic = open_in_bin file in
    let content =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    ingest_or_die ~ppf:Format.std_formatter file (Store.add s ~kind ?label content)
  in
  let term = Term.(const go $ store_dir $ kind_arg $ label_arg $ file) in
  let info =
    Cmd.info "add"
      ~doc:
        "Ingest a file's bytes into the store under their MD5 digest \
         (verify-then-rename; idempotent)"
  in
  Cmd.v info term

let store_get_cmd =
  let key =
    let doc = "An entry digest, or a resolution label (anything non-hex)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIGEST|LABEL" ~doc)
  in
  let out =
    let doc = "Write the artifact bytes here instead of standard output." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let kind_opt =
    let doc =
      "Artifact kind (required when fetching by digest; ignored for labels)."
    in
    Arg.(value & opt (some kind_conv) None & info [ "k"; "kind" ] ~docv:"KIND" ~doc)
  in
  let is_digest s =
    String.length s = 32
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  in
  let go store kind_opt out key =
    let s = open_store_req store in
    let kind, digest =
      if is_digest key then
        match kind_opt with
        | Some k -> (k, key)
        | None ->
          (* A digest names the bytes, not their kind; scan the manifest. *)
          (match
             List.find_opt
               (fun (e : Manifest.entry) -> String.equal e.Manifest.digest key)
               (Store.entries s)
           with
          | Some e -> (e.Manifest.kind, e.Manifest.digest)
          | None ->
            prerr_endline ("acfc-run: store: no entry with digest " ^ key);
            exit 1)
      else
        match Store.resolve s ~label:key with
        | Some e -> (e.Manifest.kind, e.Manifest.digest)
        | None ->
          prerr_endline ("acfc-run: store: no entry labelled " ^ key);
          exit 1
    in
    let content = or_die (Store.read s ~kind ~digest) in
    match out with
    | None -> print_string content
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc content);
      Format.printf "%s/%s -> %s (%d bytes)@." (Kind.to_string kind) digest path
        (String.length content)
  in
  let term = Term.(const go $ store_dir $ kind_opt $ out $ key) in
  let info =
    Cmd.info "get"
      ~doc:
        "Fetch stored bytes by digest or label (bytes are re-verified against \
         the digest on the way out)"
  in
  Cmd.v info term

let store_list_cmd =
  let go store =
    let s = open_store_req store in
    match Store.entries s with
    | [] -> Format.printf "store: empty (%s)@." (Store.root s)
    | entries ->
      List.iter (fun e -> Format.printf "%a@." pp_entry e) entries;
      Format.printf "store: %d entries (%s)@." (List.length entries) (Store.root s)
  in
  let term = Term.(const go $ store_dir) in
  let info =
    Cmd.info "list"
      ~doc:"Print the manifest: seq, kind, digest, size and label of every entry"
  in
  Cmd.v info term

let store_verify_cmd =
  let go store =
    let s = open_store_req store in
    match Store.verify s with
    | Ok n -> Format.printf "store: ok; %d entries verified (%s)@." n (Store.root s)
    | Error problems ->
      List.iter (fun p -> Format.eprintf "store: %s@." p) problems;
      Format.eprintf "store: %d problem(s)@." (List.length problems);
      exit 1
  in
  let term = Term.(const go $ store_dir) in
  let info =
    Cmd.info "verify"
      ~doc:
        "Re-digest every manifest entry's bytes; non-zero exit listing each \
         missing or corrupted entry"
  in
  Cmd.v info term

let store_gc_cmd =
  let go store =
    let s = open_store_req store in
    match Store.gc s with
    | [] -> Format.printf "store: nothing to collect (%s)@." (Store.root s)
    | removed ->
      List.iter (fun p -> Format.printf "removed %s@." p) removed;
      Format.printf "store: removed %d unreferenced file(s)@." (List.length removed)
  in
  let term = Term.(const go $ store_dir) in
  let info =
    Cmd.info "gc"
      ~doc:
        "Remove files the manifest does not reference: unindexed kind-directory \
         files and staging leftovers"
  in
  Cmd.v info term

let store_cmd =
  let info =
    Cmd.info "store"
      ~doc:"Inspect and maintain the content-addressed artifact store"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Artifacts — recorded reference traces, workload IR programs, \
             wirgen specs and corpora, scenarios, bench reports — live under \
             $(b,<root>/<kind>/<digest>), where the digest is the MD5 of the \
             exact stored bytes (the same fingerprints $(b,scenario --check) \
             and $(b,wirgen gen) already print). Ingestion is \
             verify-then-rename and atomic; entries are immutable once \
             published. The store root comes from $(b,--store) or \
             \\$ACFC_STORE.";
        ]
  in
  Cmd.group info
    [ store_add_cmd; store_get_cmd; store_list_cmd; store_verify_cmd; store_gc_cmd ]

(* {2 monitor} *)

let monitor_cmd =
  let file =
    let doc = "An acfc-monitor/1 JSON Lines stream, possibly still being written." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let poll =
    let doc = "Polling interval at end-of-file, in seconds." in
    Arg.(value & opt float 0.02 & info [ "poll" ] ~docv:"SECONDS" ~doc)
  in
  let timeout =
    let doc =
      "Give up after $(docv) seconds without new data (also bounds the wait \
       for the file to appear)."
    in
    Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let go poll timeout file =
    let r = Obs.Monitor.renderer () in
    match
      Obs.Monitor.follow ~path:file ~poll_s:poll ~timeout_s:timeout
        ~on_event:(fun event ->
          Obs.Monitor.render r Format.std_formatter event;
          Format.pp_print_flush Format.std_formatter ();
          `Continue)
        ()
    with
    | Ok () -> ()
    | Error msg ->
      prerr_endline ("acfc-run: " ^ msg);
      exit 1
  in
  let term = Term.(const go $ poll $ timeout $ file) in
  let info =
    Cmd.info "monitor"
      ~doc:"Tail a live run's metrics stream with follow semantics"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Start a run with $(b,--monitor FILE) (on $(b,run) or \
             $(b,scenario)), then, from another terminal, \
             $(b,acfc-run monitor FILE): snapshots appear as the simulation \
             emits them — cache hit rate with its delta against the previous \
             snapshot, and per-client gauges for fleet scenarios. Exits when \
             the run writes its end record, or non-zero after $(b,--timeout) \
             seconds of silence.";
        ]
  in
  Cmd.v info term

let () =
  let info =
    Cmd.info "acfc-run" ~version:"1.0.0"
      ~doc:"Application-controlled file caching (OSDI '94) simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            scenario_cmd;
            workload_cmd;
            wirgen_cmd;
            report_cmd;
            record_cmd;
            policies_cmd;
            policy_cmd;
            store_cmd;
            monitor_cmd;
          ]))
