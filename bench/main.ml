(* The benchmark harness.

   Two halves:

   1. Reproduction: regenerate every table and figure of the paper's
      evaluation (Figures 4-6, Tables 1-6) with the full simulation,
      printing measured values next to the published ones. This is the
      output recorded in EXPERIMENTS.md.

   2. Bechamel micro-benchmarks: one [Test.make] per paper artifact
      (a scaled-down single-cell version of that experiment, so its
      cost can be tracked over time), plus a group covering the cache
      hot paths (hit, miss/evict under each allocation policy, the
      control calls) and the underlying data structures.

   Usage:
     main.exe                 everything (full reproduction + micro)
     main.exe fig4 table1     selected artifacts only
     main.exe micro           micro-benchmarks only
     main.exe perf            hot-path microbench family (engine-events,
                              disk-queue, policy-miss, cache-churn):
                              ops/sec and minor-heap words per op, into
                              the JSON "perf" section (see docs/PERF.md)
     main.exe check           equivalence replay: recorded + synthetic
                              reference traces through the naive and the
                              indexed disk-queue pickers and replacement
                              policies; exits non-zero on any divergence
     main.exe tournament      policy tournament: every registered policy
                              (stock + adaptive) over every wirgen corpus
                              family, scored as miss-count regret vs OPT;
                              rows land in the JSON "tournament" section
                              and --tournament-baseline gates them
     main.exe wirgen          generated-corpus family: draw a corpus from
                              the default wirgen spec at --corpus-seed,
                              replay its combined demand stream through
                              every policy, and run it as one machine;
                              spec hash + corpus seed land in the JSON
                              artifact row next to scenario_hash
     main.exe --quick         1 run and 2 cache sizes per artifact
     main.exe --runs N        cold-start runs per data point (default 3)
     main.exe --jobs N        run grid cells on N domains (default
                              ACFC_JOBS, else sequential); results are
                              byte-identical for every N
     main.exe fig5-par        time the fig5 grid sequential vs parallel
                              and report the speedup
     main.exe --json FILE     also write machine-readable results
                              (the acfc-bench/1 schema; CI uploads this
                              as the BENCH_results.json artifact)
     main.exe --baseline FILE with perf: check ratio (indexed/naive
                              speedup), abs (ops/sec floor) and alloc
                              (minor words per op budget) gate rows
                              against the committed baseline; exits
                              non-zero on any violation and reports
                              measured rows no gate covers
*)

module Config = Acfc_core.Config
module Cache = Acfc_core.Cache
module Policy = Acfc_core.Policy
module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Pool = Acfc_par.Pool
module Fleet = Acfc_fleet.Fleet
module Scenario = Acfc_scenario.Scenario
module Cache_ref = Acfc_core.Cache_ref
module Wir = Acfc_wir.Wir
module Wirgen = Acfc_wirgen.Wirgen
module Store = Acfc_store.Store
module Kind = Acfc_store.Kind
open Acfc_experiments

let pid0 = Acfc_core.Pid.make 0

(* {2 Scratch space and the artifact store}

   Every intermediate file bench creates lives under one per-run temp
   directory, removed at exit — at_exit also runs on the gates' [exit
   1]/[exit 2] paths, so failing runs clean up too, and nothing ever
   lands in the CWD. *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let temp_root = ref None

let temp_dir () =
  match !temp_root with
  | Some d -> d
  | None ->
    let d = Filename.temp_dir "acfc-bench" "" in
    temp_root := Some d;
    at_exit (fun () -> remove_tree d);
    d

(* The content-addressed store every artifact path resolves through:
   recorded traces and wirgen corpora are looked up by digest (cold
   runs generate and ingest, warm runs hit), and every emitted JSON
   report is ingested. [--store DIR] (or ACFC_STORE) makes it
   persistent so history accumulates across runs; the default is an
   ephemeral store inside the per-run temp dir — same code path,
   cleaned up at exit. *)

let store_dir : string option ref = ref (Sys.getenv_opt "ACFC_STORE")
let store_handle = ref None

let store () =
  match !store_handle with
  | Some s -> s
  | None ->
    let dir =
      match !store_dir with
      | Some d -> d
      | None -> Filename.concat (temp_dir ()) "store"
    in
    (match Store.open_ dir with
    | Ok s ->
      store_handle := Some s;
      s
    | Error e -> failwith ("bench: " ^ e))

(* Corpora resolve through the store by their deterministic label:
   first run of a (spec, seed, count) triple generates and ingests,
   every later run loads the stored bytes — bit-identical either way,
   since generation is a pure function and the codec round-trips. *)
let stored_corpus spec ~seed ~count =
  match Wirgen.stored_corpus (store ()) spec ~seed ~count with
  | Ok (programs, _) -> programs
  | Error e -> failwith ("bench: " ^ e)

(* {2 Micro-benchmarks} *)

let cache_hit_test =
  let cache = Cache.create (Config.make ~capacity_blocks:1024 ()) in
  ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:0));
  Bechamel.Test.make ~name:"cache/hit"
    (Bechamel.Staged.stage @@ fun () ->
     ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:0)))

let cache_miss_test ~name ~alloc_policy ~smart =
  let cache = Cache.create (Config.make ~alloc_policy ~capacity_blocks:1024 ()) in
  if smart then begin
    (match Cache.register_manager cache pid0 with Ok () -> () | Error _ -> assert false);
    match Cache.set_policy cache pid0 ~prio:0 Policy.Mru with
    | Ok () -> ()
    | Error _ -> assert false
  end;
  (* Fill so that every further read evicts. *)
  for i = 0 to 1023 do
    ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:i))
  done;
  let next = ref 1024 in
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage @@ fun () ->
     ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:!next));
     incr next)

let cache_miss_upcall_test =
  let cache = Cache.create (Config.make ~capacity_blocks:1024 ()) in
  (match Cache.register_manager cache pid0 with Ok () -> () | Error _ -> assert false);
  (* An upcall handler doing the same work as the MRU pool, but through
     the general mechanism: the paper's flexibility-vs-overhead trade. *)
  (match
     Cache.set_chooser cache pid0
       (Some (fun ~candidate ~resident:_ -> Some candidate))
   with
  | Ok () -> ()
  | Error _ -> assert false);
  for i = 0 to 1023 do
    ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:i))
  done;
  let next = ref 1024 in
  Bechamel.Test.make ~name:"cache/miss-evict-upcall"
    (Bechamel.Staged.stage @@ fun () ->
     ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:!next));
     incr next)

let set_temppri_test =
  let cache = Cache.create (Config.make ~capacity_blocks:1024 ()) in
  (match Cache.register_manager cache pid0 with Ok () -> () | Error _ -> assert false);
  for i = 0 to 1023 do
    ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:i))
  done;
  let flip = ref 0 in
  Bechamel.Test.make ~name:"control/set_temppri"
    (Bechamel.Staged.stage @@ fun () ->
     flip := (!flip + 1) land 1023;
     ignore (Cache.set_temppri cache pid0 ~file:0 ~first:!flip ~last:!flip ~prio:(-1)))

let ilist_test =
  let store = Ilist.make_store 16 in
  let l = Ilist.create () in
  Ilist.push_front store l 0;
  Bechamel.Test.make ~name:"ilist/remove+push"
    (Bechamel.Staged.stage @@ fun () ->
     Ilist.remove store l 0;
     Ilist.push_front store l 0)

let heap_test =
  let h = Acfc_sim.Heap.create ~leq:(fun (a : float) b -> a <= b) () in
  for i = 0 to 255 do
    Acfc_sim.Heap.push h (float_of_int i)
  done;
  Bechamel.Test.make ~name:"heap/push+pop"
    (Bechamel.Staged.stage @@ fun () ->
     Acfc_sim.Heap.push h 128.0;
     ignore (Acfc_sim.Heap.pop h))

let engine_event_test =
  Bechamel.Test.make ~name:"engine/delay-roundtrip"
    (Bechamel.Staged.stage @@ fun () ->
     let e = Acfc_sim.Engine.create () in
     Acfc_sim.Engine.spawn e (fun () -> Acfc_sim.Engine.delay e 1.0);
     Acfc_sim.Engine.run e)

let policy_sim_test ~name policy =
  let trace = Acfc_replacement.Trace.cyclic ~file:0 ~blocks:512 ~passes:4 in
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage @@ fun () ->
     ignore (Acfc_replacement.Policy_sim.run policy ~capacity:256 trace))

(* One Test.make per paper artifact: a single-cell scaled version. *)
let artifact_tests =
  let quick f = Bechamel.Staged.stage @@ fun () -> ignore (f ()) in
  [
    Bechamel.Test.make ~name:"fig4/din-6.4MB"
      (quick (fun () -> Single.run ~runs:1 ~sizes:[ 6.4 ] ~apps:[ "din" ] ()));
    Bechamel.Test.make ~name:"table5/cs1-6.4MB"
      (quick (fun () -> Single.run ~runs:1 ~sizes:[ 6.4 ] ~apps:[ "cs1" ] ()));
    Bechamel.Test.make ~name:"table6/ldk-6.4MB"
      (quick (fun () -> Single.run ~runs:1 ~sizes:[ 6.4 ] ~apps:[ "ldk" ] ()));
    Bechamel.Test.make ~name:"fig5/cs3+ldk-6.4MB"
      (quick (fun () ->
           Multi.run ~runs:1 ~sizes:[ 6.4 ] ~combos:[ [ "cs3"; "ldk" ] ] ()));
    Bechamel.Test.make ~name:"fig6/cs2+gli-6.4MB"
      (quick (fun () ->
           Alloc_lru.run ~runs:1 ~sizes:[ 6.4 ] ~combos:[ [ "cs2"; "gli" ] ] ()));
    Bechamel.Test.make ~name:"table1/read500"
      (quick (fun () -> Placeholders.run ~runs:1 ~ns:[ 500 ] ()));
    Bechamel.Test.make ~name:"table2/din"
      (quick (fun () -> Foolish.run ~runs:1 ~apps:[ "din" ] ()));
    Bechamel.Test.make ~name:"table3/din"
      (quick (fun () -> Smart_oblivious.run ~runs:1 ~apps:[ "din" ] ~two_disks:false ()));
    Bechamel.Test.make ~name:"table4/din"
      (quick (fun () -> Smart_oblivious.run ~runs:1 ~apps:[ "din" ] ~two_disks:true ()));
  ]

let micro_tests =
  [
    cache_hit_test;
    cache_miss_test ~name:"cache/miss-evict-global-lru" ~alloc_policy:Config.Global_lru
      ~smart:false;
    cache_miss_test ~name:"cache/miss-evict-lru-sp-overrule" ~alloc_policy:Config.Lru_sp
      ~smart:true;
    cache_miss_upcall_test;
    set_temppri_test;
    ilist_test;
    heap_test;
    engine_event_test;
    policy_sim_test ~name:"policy-sim/lru-cyclic" (module Acfc_policy.Cores.Lru);
    policy_sim_test ~name:"policy-sim/opt-cyclic" (module Acfc_policy.Cores.Opt);
  ]

(* Runs each test, prints the human-readable line, and returns
   [(name, ns_per_run, r2)] rows for the machine-readable report. *)
let run_bechamel ~quota_s tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:None ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"" [ test ]) in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let name =
            if String.length name > 0 && name.[0] = '/' then
              String.sub name 1 (String.length name - 1)
            else name
          in
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | Some _ | None -> Float.nan
          in
          let r2 = Option.value (Analyze.OLS.r_square ols_result) ~default:Float.nan in
          let value, unit_ =
            if estimate > 1e9 then (estimate /. 1e9, "s")
            else if estimate > 1e6 then (estimate /. 1e6, "ms")
            else if estimate > 1e3 then (estimate /. 1e3, "us")
            else (estimate, "ns")
          in
          Format.printf "  %-36s %10.2f %s/run   (r²=%.3f)@." name value unit_ r2;
          (name, estimate, r2) :: acc)
        analyzed [])
    tests

let run_micro () =
  Format.printf "@.%s@." (String.make 74 '=');
  Format.printf "Bechamel micro-benchmarks: paper artifacts (single-cell, scaled)@.";
  let artifact_rows = run_bechamel ~quota_s:2.0 artifact_tests in
  Format.printf "@.Bechamel micro-benchmarks: cache hot paths and substrates@.";
  let micro_rows = run_bechamel ~quota_s:0.5 micro_tests in
  artifact_rows @ micro_rows

(* {2 Perf microbench family}

   Hand-rolled steady-state loops (not bechamel): each benchmark reports
   throughput (ops/sec) and minor-heap allocation per op, the two
   quantities the hot-path re-indexing work (Sched_queue, indexed
   LRU-2/OPT/RAND) is meant to improve. The *-naive rows run the
   reference implementations on the identical op sequence, so the
   indexed/naive ratio is a machine-independent speedup — that ratio is
   what the --baseline gate checks. See docs/PERF.md. *)

module Sq = Acfc_disk.Sched_queue
module Rt = Acfc_replacement.Trace
module Policy_sim = Acfc_replacement.Policy_sim
module Reference = Acfc_replacement.Reference
module Cores = Acfc_policy.Cores
module Registry = Acfc_policy.Registry

type perf_row = {
  p_name : string;
  ops_per_sec : float;
  alloc_words_per_op : float;
  p_ops : int;  (* total ops measured *)
}

(* Indexed benchmark vs its naive-reference twin: the ratio of their
   ops/sec is the speedup the re-indexing buys, and what --baseline
   gates on. *)
let speedup_pairs =
  [
    ("disk-queue/fcfs", "disk-queue/fcfs-naive");
    ("disk-queue/scan", "disk-queue/scan-naive");
    ("policy-miss/lru2", "policy-miss/lru2-naive");
    ("policy-miss/opt", "policy-miss/opt-naive");
    ("engine-events/steady", "engine-events/steady-naive");
    ("engine-events/batch", "engine-events/batch-naive");
    ("cache-churn", "cache-churn/ref");
    (* Not an indexed/naive pair but a scaling pair: the same fleet on 4
       domains vs 1. The ratio gate on it is the multi-core scaling
       floor (meaningful on the >= 4-vCPU CI runners; a 1-core box
       measures ~1x and must not run the ratio gate). *)
    ("fleet-events/jobs4", "fleet-events/jobs1");
  ]

(* Best wall time of three timed passes: scheduler and frequency
   jitter only ever slow a pass down, so the minimum is the least
   noisy estimate. Allocation is deterministic, so one pass's words
   suffice. *)
let measure_perf ~name ~warmup ~iters ~batch f =
  for _ = 1 to warmup do
    f ()
  done;
  let ops = iters * batch in
  let fops = float_of_int ops in
  let best_wall = ref Float.infinity and words = ref 0.0 in
  for pass = 1 to 3 do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let wall = Unix.gettimeofday () -. t0 in
    if pass = 1 then words := Gc.minor_words () -. w0;
    if wall < !best_wall then best_wall := wall
  done;
  {
    p_name = name;
    (* Clamp the denominator: a pass fast enough to land inside the
       timer's resolution must not report an infinite (or
       divide-by-zero) rate, which would poison ratios and the JSON. *)
    ops_per_sec = fops /. Float.max !best_wall 1e-9;
    alloc_words_per_op = !words /. fops;
    p_ops = ops;
  }

(* One op = one dispatch (pick) plus one arrival (add) at a steady
   queue depth of 64, over a fixed pseudo-random address sequence. *)
let disk_queue_depth = 64

let disk_queue_addrs =
  let rng = Acfc_sim.Rng.create 42 in
  Array.init 4096 (fun _ -> Acfc_sim.Rng.int rng 100_000)

let bench_disk_queue ~name ~add ~pick =
  let n = Array.length disk_queue_addrs in
  for i = 0 to disk_queue_depth - 1 do
    add ~addr:disk_queue_addrs.(i) disk_queue_addrs.(i)
  done;
  let pos = ref disk_queue_depth in
  (* The head follows the served request, as in the real drive. Both
     implementations pick the same requests (see [check]), so they see
     identical head sequences. *)
  let head = ref 0 in
  measure_perf ~name ~warmup:20_000 ~iters:200_000 ~batch:1 (fun () ->
      (match pick ~head:!head with Some a -> head := a | None -> ());
      let addr = disk_queue_addrs.(!pos land (n - 1)) in
      add ~addr addr;
      incr pos)

let bench_disk_queues () =
  List.concat_map
    (fun (label, discipline) ->
      let indexed =
        let q = Sq.create discipline in
        bench_disk_queue
          ~name:(Printf.sprintf "disk-queue/%s" label)
          ~add:(fun ~addr v -> Sq.add q ~addr v)
          ~pick:(fun ~head -> Sq.pick q ~head)
      in
      let naive =
        let q = Sq.Naive.create discipline in
        bench_disk_queue
          ~name:(Printf.sprintf "disk-queue/%s-naive" label)
          ~add:(fun ~addr v -> Sq.Naive.add q ~addr v)
          ~pick:(fun ~head -> Sq.Naive.pick q ~head)
      in
      [ indexed; naive ])
    [ ("fcfs", Sq.Fcfs); ("scan", Sq.Scan) ]

(* One op = one trace reference against a full cache of 4096 resident
   blocks (every reference past the fill is a likely miss), comparing
   the indexed policies against the linear-scan references. The AWRP
   and PERCEPTRON rows have no twin here (their full-scan oracles live
   in test/); their alloc budgets pin an allocation-free victim
   choice. *)
let policy_miss_trace =
  let rng = Acfc_sim.Rng.create 9 in
  let fill = Array.init 4096 (fun i -> Acfc_core.Block.make ~file:0 ~index:i) in
  let tail = Rt.random ~rng ~file:0 ~blocks:8192 ~length:6_000 in
  Array.append fill tail

let bench_policy_miss () =
  List.map
    (fun (name, policy) ->
      let batch = Array.length policy_miss_trace in
      measure_perf ~name ~warmup:1 ~iters:1 ~batch (fun () ->
          ignore (Policy_sim.run policy ~capacity:4096 policy_miss_trace)))
    [
      ("policy-miss/lru2", (module Cores.Lru_2 : Acfc_policy.Policy_core.CORE));
      ("policy-miss/lru2-naive", (module Reference.Lru_2));
      ("policy-miss/opt", (module Cores.Opt));
      ("policy-miss/opt-naive", (module Reference.Opt));
      ("policy-miss/rand", (module Cores.Rand));
      ("policy-miss/awrp", (module Cores.Awrp));
      ("policy-miss/perceptron", (module Cores.Perceptron));
    ]

(* One op = one simulator event (a timer fire through the engine's
   event heap and effect handler). This row includes engine creation and
   fiber spawn/teardown in the measured loop, so it is dominated by
   OCaml's per-fiber stack allocation; the /steady row below isolates
   the per-event cost. *)
let bench_engine_events () =
  let fibers = 32 and delays = 8 in
  measure_perf ~name:"engine-events" ~warmup:20 ~iters:400 ~batch:(fibers * delays)
    (fun () ->
      let e = Acfc_sim.Engine.create () in
      for _ = 1 to fibers do
        Acfc_sim.Engine.spawn e (fun () ->
            for _ = 1 to delays do
              Acfc_sim.Engine.delay e 1.0
            done)
      done;
      Acfc_sim.Engine.run e)

(* A faithful re-creation of the seed engine's hot path — a closure
   heap of boxed event records, and a [Suspend]-style delay that
   allocates a register closure, a one-shot resume closure and a
   blocked-table entry per sleep. Kept as the naive reference twin for
   the engine-events/steady ratio row, the same way [Sq.Naive] anchors
   the disk-queue rows. *)
module Naive_engine = struct
  type event = { time : float; seq : int; thunk : unit -> unit }

  type t = {
    mutable clock : float;
    mutable seq : int;
    events : event Acfc_sim.Heap.t;
    blocked : (int, string) Hashtbl.t;
    mutable next_id : int;
  }

  type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

  let event_leq a b = a.time < b.time || (a.time = b.time && a.seq <= b.seq)

  let create () =
    {
      clock = 0.0;
      seq = 0;
      events = Acfc_sim.Heap.create ~leq:event_leq ();
      blocked = Hashtbl.create 16;
      next_id = 0;
    }

  let schedule t ~at thunk =
    t.seq <- t.seq + 1;
    Acfc_sim.Heap.push t.events { time = at; seq = t.seq; thunk }

  let spawn t f =
    let id = t.next_id in
    t.next_id <- id + 1;
    schedule t ~at:t.clock (fun () ->
        let open Effect.Deep in
        match_with f ()
          {
            retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Suspend register ->
                  Some
                    (fun (k : (a, unit) continuation) ->
                      Hashtbl.replace t.blocked id "fiber";
                      let resumed = ref false in
                      let resume () =
                        if !resumed then invalid_arg "naive: resumed twice";
                        resumed := true;
                        Hashtbl.remove t.blocked id;
                        continue k ()
                      in
                      register resume)
                | _ -> None);
          })

  let delay t dt =
    Effect.perform (Suspend (fun resume -> schedule t ~at:(t.clock +. dt) resume))

  let run_until t horizon =
    let continue_ = ref true in
    while !continue_ do
      match Acfc_sim.Heap.peek t.events with
      | Some ev when ev.time <= horizon ->
        ignore (Acfc_sim.Heap.pop_exn t.events);
        t.clock <- ev.time;
        ev.thunk ()
      | _ -> continue_ := false
    done;
    if t.clock < horizon then t.clock <- horizon
end

(* Steady-state timer stream: a long-lived engine whose sleepers never
   finish, driven through [run_until] with no setup inside the measured
   loop. One op = one timer event — the engine's per-event floor —
   against the seed-style record/closure twin above. *)
let bench_engine_steady () =
  let fibers = 32 in
  let columnar =
    let e = Acfc_sim.Engine.create () in
    let go = ref true in
    for _ = 1 to fibers do
      Acfc_sim.Engine.spawn e (fun () ->
          while !go do
            Acfc_sim.Engine.delay e 1.0
          done)
    done;
    let horizon = ref 0.0 in
    let row =
      measure_perf ~name:"engine-events/steady" ~warmup:100 ~iters:60_000
        ~batch:fibers (fun () ->
          horizon := !horizon +. 1.0;
          Acfc_sim.Engine.run_until e !horizon)
    in
    (* Let the sleepers observe the flag and finish, releasing their
       fiber stacks. *)
    go := false;
    Acfc_sim.Engine.run_until e (!horizon +. 1.0);
    row
  in
  let naive =
    let e = Naive_engine.create () in
    let go = ref true in
    for _ = 1 to fibers do
      Naive_engine.spawn e (fun () ->
          while !go do
            Naive_engine.delay e 1.0
          done)
    done;
    let horizon = ref 0.0 in
    let row =
      measure_perf ~name:"engine-events/steady-naive" ~warmup:100 ~iters:15_000
        ~batch:fibers (fun () ->
          horizon := !horizon +. 1.0;
          Naive_engine.run_until e !horizon)
    in
    go := false;
    Naive_engine.run_until e (!horizon +. 1.0);
    row
  in
  [ columnar; naive ]

(* Batched same-instant completion delivery: each tick schedules a
   burst of jobs due exactly now — the shape of a disk batch completing
   or an ivar broadcast — which the columnar engine routes through the
   ready ring (O(1) push/pop, no heap sift, no event record); the naive
   twin pays a record allocation and a full heap push/pop per job. One
   op = one delivered completion. *)
let bench_engine_batch () =
  let burst = 256 in
  let nop () = () in
  let columnar =
    let e = Acfc_sim.Engine.create () in
    measure_perf ~name:"engine-events/batch" ~warmup:200 ~iters:40_000
      ~batch:burst (fun () ->
        for _ = 1 to burst do
          Acfc_sim.Engine.schedule e ~at:0.0 nop
        done;
        Acfc_sim.Engine.run_until e 0.0)
  in
  let naive =
    let e = Naive_engine.create () in
    measure_perf ~name:"engine-events/batch-naive" ~warmup:200 ~iters:8_000
      ~batch:burst (fun () ->
        for _ = 1 to burst do
          Naive_engine.schedule e ~at:0.0 nop
        done;
        Naive_engine.run_until e 0.0)
  in
  [ columnar; naive ]

(* One op = one miss-plus-eviction through the full BUF/ACM cache. *)
let bench_cache_churn () =
  let cache = Cache.create (Config.make ~capacity_blocks:1024 ()) in
  for i = 0 to 1023 do
    ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:i))
  done;
  let next = ref 1024 in
  measure_perf ~name:"cache-churn" ~warmup:10_000 ~iters:300_000 ~batch:1 (fun () ->
      ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:!next));
      incr next)

(* The same miss storm with pid 0 registered as a manager that runs MRU
   at priority 0, so every miss also takes the managed path: ACM's
   [new_block], the manager's choice, the swap and its placeholder. *)
let bench_cache_churn_managed () =
  let cache = Cache.create (Config.make ~alloc_policy:Config.Lru_sp ~capacity_blocks:1024 ()) in
  (match Cache.register_manager cache pid0 with Ok () -> () | Error _ -> assert false);
  (match Cache.set_policy cache pid0 ~prio:0 Policy.Mru with
  | Ok () -> ()
  | Error _ -> assert false);
  for i = 0 to 1023 do
    ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:i))
  done;
  let next = ref 1024 in
  measure_perf ~name:"cache-churn/managed" ~warmup:10_000 ~iters:300_000 ~batch:1
    (fun () ->
      ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:!next));
      incr next)

(* The identical miss storm through the retained record-based cache
   ({!Cache_ref}): the columnar/record ratio is the speedup the flat
   layout buys, gated like the other naive-twin pairs. *)
let bench_cache_churn_ref () =
  let cache = Cache_ref.create (Config.make ~capacity_blocks:1024 ()) in
  for i = 0 to 1023 do
    ignore (Cache_ref.read cache ~pid:pid0 (Block.make ~file:0 ~index:i))
  done;
  let next = ref 1024 in
  measure_perf ~name:"cache-churn/ref" ~warmup:10_000 ~iters:100_000 ~batch:1
    (fun () ->
      ignore (Cache_ref.read cache ~pid:pid0 (Block.make ~file:0 ~index:!next));
      incr next)

(* Macro row: a wirgen-corpus demand stream through the full columnar
   cache — generated workloads with real hit/miss mixture and file
   locality, complementing cache-churn's all-miss storm. One op = one
   block reference; the corpus is a pure function of (default spec,
   seed 1), so the row is comparable across runs. *)
let bench_wir_corpus () =
  let corpus = stored_corpus Wirgen.default ~seed:1 ~count:4 in
  let trace =
    let next_file = ref 0 in
    Array.concat
      (List.map
         (fun program ->
           let offset = !next_file in
           next_file := offset + Wir.file_count program;
           Array.map
             (fun b ->
               Block.make ~file:(offset + Block.file b) ~index:(Block.index b))
             (Wir.references program))
         corpus)
  in
  let cache = Cache.create (Config.make ~capacity_blocks:1024 ()) in
  let n = Array.length trace in
  let pos = ref 0 in
  measure_perf ~name:"cache-wir-corpus" ~warmup:(min n 50_000) ~iters:400_000
    ~batch:1 (fun () ->
      ignore (Cache.read cache ~pid:pid0 trace.(!pos));
      incr pos;
      if !pos = n then pos := 0)

(* {2 Fleet perf family (fleet-events)}

   The whole domain-parallel fleet engine as one benchmark: N client
   machines (each an engine + columnar cache + analytic local disks)
   in front of a shared server cache, run to completion at --jobs 1, 2
   and 4. One op = one engine event aggregated over every client, so
   ops/sec is the fleet's events-per-second throughput. The reports
   must be byte-identical across the jobs values (the conservative-
   lookahead determinism contract); the jobs4/jobs1 ratio row is the
   multi-core scaling gate. See docs/PERF.md. *)

(* Every client runs this three-workload machine: a cyclic scan of the
   one server-backed shared file, a random-read mix over a local file
   larger than its cache share, and a local sequential scan. The 50 ms
   link latency keeps epochs long (lookahead 100 ms), so barriers stay
   rare relative to events and the scaling ratio measures the engine,
   not the barrier. *)
let fleet_scenario ~clients ~scan_passes ~rand_reads ~seq_passes =
  let shared_scan =
    Wir.make ~name:"fleet-shared-scan" ~category:"cyclic"
      [
        Wir.open_file ~name:"shared" ~size_blocks:192 ();
        Wir.loop scan_passes [ Wir.read ~file:0 ~first:0 ~count:192 () ];
      ]
  in
  let local_rand =
    Wir.make ~name:"fleet-local-rand" ~category:"hot/cold"
      [
        Wir.open_file ~name:"rand" ~size_blocks:640 ();
        Wir.loop rand_reads [ Wir.rand_read ~file:0 ~base:0 ~range:640 () ];
      ]
  in
  let local_seq =
    Wir.make ~name:"fleet-local-seq" ~category:"cyclic"
      [
        Wir.open_file ~name:"seq" ~size_blocks:512 ();
        Wir.loop seq_passes [ Wir.read ~file:0 ~first:0 ~count:512 () ];
      ]
  in
  Scenario.make ~seed:7 ~cache_blocks:1024
    ~fleet:
      (Scenario.fleet ~shared_files:1 ~clients ~server_cache_blocks:256
         ~latency_ms:50.0 ~bandwidth_mb_per_s:50.0 ())
    [
      Scenario.inline_workload ~smart:false shared_scan;
      Scenario.inline_workload ~smart:false local_rand;
      Scenario.inline_workload ~smart:false local_seq;
    ]

let fleet_jobs = [ 1; 2; 4 ]

let bench_fleet () =
  let scn = fleet_scenario ~clients:16 ~scan_passes:12 ~rand_reads:20_000 ~seq_passes:20 in
  let rows = ref [] and outputs = ref [] in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "fleet-events/jobs%d" jobs in
      let best = ref Float.infinity and words = ref 0.0 and events = ref 0 in
      for pass = 1 to 3 do
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r = Fleet.run ~jobs scn in
        let wall = Unix.gettimeofday () -. t0 in
        if pass = 1 then begin
          (* Minor words are domain-local, so only the jobs1 row (whose
             Team runs everything on this domain) measures the whole
             fleet's allocation; that is the row the alloc gate covers. *)
          words := Gc.minor_words () -. w0;
          events := r.Fleet.events;
          outputs := (name, Fleet.to_string r) :: !outputs
        end;
        if wall < !best then best := wall
      done;
      rows :=
        {
          p_name = name;
          ops_per_sec = float_of_int !events /. Float.max !best 1e-9;
          alloc_words_per_op = !words /. float_of_int (max !events 1);
          p_ops = !events;
        }
        :: !rows)
    fleet_jobs;
  (* The determinism contract, enforced on every perf run: the rendered
     report must not depend on the worker count. *)
  (match List.rev !outputs with
  | [] -> ()
  | (ref_name, ref_out) :: rest ->
    List.iter
      (fun (name, out) ->
        if out <> ref_out then
          failwith
            (Printf.sprintf "fleet: report at %s differs from %s" name ref_name))
      rest);
  List.rev !rows

let run_perf () =
  Format.printf "@.%s@." (String.make 74 '=');
  Format.printf "Hot-path microbenchmarks: ops/sec and minor words per op@.";
  let rows =
    (bench_engine_events () :: (bench_engine_steady () @ bench_engine_batch ()))
    @ bench_disk_queues () @ bench_policy_miss ()
    @ [
        bench_cache_churn ();
        bench_cache_churn_managed ();
        bench_cache_churn_ref ();
        bench_wir_corpus ();
      ]
    @ bench_fleet ()
  in
  List.iter
    (fun r ->
      Format.printf "  %-28s %12.0f ops/s   %8.1f w/op@." r.p_name r.ops_per_sec
        r.alloc_words_per_op)
    rows;
  (* Print the indexed/naive speedups next to the raw rates. *)
  let rate name =
    List.find_map (fun r -> if r.p_name = name then Some r.ops_per_sec else None) rows
  in
  List.iter
    (fun (fast, slow) ->
      match (rate fast, rate slow) with
      | Some f, Some s when s > 0.0 ->
        Format.printf "  %-28s %12.2fx vs %s@." fast (f /. s) slow
      | _ -> ())
    speedup_pairs;
  rows

(* {2 Equivalence replay (check)}

   Replays reference traces through the naive and indexed
   implementations and fails on the first divergence. The disk-queue
   replay drives randomized arrival/dispatch sequences; the policy
   replay uses both synthetic traces and a trace recorded from a real
   workload run (the cache's own reference stream). *)

let check_disk_queues () =
  let rng = Acfc_sim.Rng.create 2024 in
  List.iter
    (fun (label, discipline) ->
      for round = 1 to 50 do
        let indexed = Sq.create discipline in
        let naive = Sq.Naive.create discipline in
        let next = ref 0 in
        for step = 1 to 400 do
          if Acfc_sim.Rng.bool rng && !next > 0 then begin
            let head = Acfc_sim.Rng.int rng 128 in
            let a = Sq.pick indexed ~head and b = Sq.Naive.pick naive ~head in
            if a <> b then
              failwith
                (Printf.sprintf
                   "check: disk-queue %s diverged (round %d step %d head %d)" label
                   round step head)
          end
          else begin
            let addr = Acfc_sim.Rng.int rng 128 in
            Sq.add indexed ~addr !next;
            Sq.Naive.add naive ~addr !next;
            incr next
          end
        done
      done;
      Format.printf "  check disk-queue/%s: 50 sequences, no divergence@." label)
    [ ("fcfs", Sq.Fcfs); ("scan", Sq.Scan) ]

(* A block-reference trace recorded from a live workload run: the same
   stream the cache saw, replayed through old-vs-new policy code. The
   recording resolves through the store by the scenario's hash — the
   first run records and ingests, later runs (and other families in
   the same run) read the stored bytes back. *)
let recorded_scenario () =
  Acfc_scenario.Scenario.make ~seed:11 ~cache_blocks:256
    ~alloc_policy:Config.Lru_sp
    [ Acfc_scenario.Scenario.workload ~smart:false ~disk:0 "read400" ]

let recorded_stream () =
  let st = store () in
  let scenario = recorded_scenario () in
  let label = "refstream:" ^ Acfc_scenario.Scenario.hash scenario in
  match Store.resolve st ~label with
  | Some entry ->
    (match
       Store.read st ~kind:Kind.Refstream ~digest:entry.Acfc_store.Manifest.digest
     with
    | Ok content -> Acfc_replacement.Refstream.parse content
    | Error e -> failwith ("bench: " ^ e))
  | None ->
    let recorder = Acfc_replacement.Recorder.create () in
    let sink = Acfc_obs.Sink.create ~backend:Acfc_obs.Sink.Null () in
    ignore
      (Acfc_scenario.Scenario.run ~obs:sink
         ~tracer:(Acfc_replacement.Recorder.tracer recorder)
         scenario);
    let stream = Acfc_replacement.Recorder.stream recorder in
    (match
       Store.add st ~kind:Kind.Refstream ~label (Acfc_replacement.Refstream.render stream)
     with
    | Ok _ -> ()
    | Error e -> failwith ("bench: " ^ e));
    stream

let recorded_trace () = Acfc_replacement.Refstream.demand (recorded_stream ())

let check_policies () =
  let rng = Acfc_sim.Rng.create 7 in
  let traces =
    [
      ("recorded/readn-400", recorded_trace ());
      ("synthetic/random", Rt.random ~rng ~file:0 ~blocks:512 ~length:4_000);
      ("synthetic/zipf", Rt.zipf ~rng ~file:0 ~blocks:512 ~skew:1.0 ~length:4_000);
      ("synthetic/cyclic", Rt.cyclic ~file:0 ~blocks:300 ~passes:10);
    ]
  in
  (* Every stock core against its retained record twin, the two run as
     one pair through Policy_sim.run: the core extraction must not move
     a single victim. *)
  let pairs =
    [
      ("lru", (module Cores.Lru : Acfc_policy.Policy_core.CORE),
        (module Reference.Lru : Acfc_policy.Policy_core.CORE));
      ("mru", (module Cores.Mru), (module Reference.Mru));
      ("fifo", (module Cores.Fifo), (module Reference.Fifo));
      ("clock", (module Cores.Clock), (module Reference.Clock));
      ("lru2", (module Cores.Lru_2), (module Reference.Lru_2));
      ("2q", (module Cores.Two_q), (module Reference.Two_q));
      ("rand", (module Cores.Rand), (module Reference.Rand));
      ("opt", (module Cores.Opt), (module Reference.Opt));
    ]
  in
  List.iter
    (fun (tname, trace) ->
      List.iter
        (fun (pname, indexed, reference) ->
          List.iter
            (fun capacity ->
              match Reference.lockstep indexed reference ~capacity trace with
              | None -> ()
              | Some (pos, va, vb) ->
                failwith
                  (Format.asprintf
                     "check: policy %s diverged on %s cap=%d at pos %d (%a vs %a)"
                     pname tname capacity pos Block.pp va Block.pp vb))
            [ 64; 200 ])
        pairs;
      Format.printf "  check policies on %s (%d refs): all 8 stock identical@." tname
        (Array.length trace))
    traces

(* {2 Columnar-vs-record lockstep replay}

   The tentpole equivalence proof: the columnar cache (Ctab/Ilist/Itbl
   under Buf/Acm) and the retained record twin (Cache_ref) replay the
   identical op sequence while {!Acfc_core.Lockstep} diffs results,
   event streams, stats, LRU and level orders, and invariants. Three
   sources: a trace recorded from a live workload run (real pids and
   prefetch flags), a wirgen-generated corpus, and a seeded storm that
   also exercises the whole control path (managers, priorities,
   policies, temppri, choosers, sync, invalidation) under every
   allocation policy. *)

module Lockstep = Acfc_core.Lockstep

let lockstep_report what = function
  | Ok n ->
    Format.printf "  check lockstep/%-22s %6d ops, columnar == record twin@."
      what n
  | Error d ->
    failwith
      (Format.asprintf "@[<v>check: lockstep/%s diverged:@,%a@]" what
         Lockstep.pp_divergence d)

let lockstep_recorded () =
  let ops =
    Array.map
      (fun e ->
        Lockstep.Read
          {
            pid = e.Acfc_replacement.Refstream.pid;
            block = e.block;
            prefetch = e.prefetch;
          })
      (recorded_stream ())
  in
  lockstep_report "recorded/readn-400"
    (Lockstep.run (Config.make ~capacity_blocks:256 ()) ops)

let lockstep_wirgen () =
  let corpus = stored_corpus Wirgen.default ~seed:3 ~count:16 in
  let next_file = ref 0 in
  let trace =
    Array.concat
      (List.map
         (fun program ->
           let offset = !next_file in
           next_file := offset + Wir.file_count program;
           Array.map
             (fun b ->
               Block.make ~file:(offset + Block.file b) ~index:(Block.index b))
             (Wir.references program))
         corpus)
  in
  (* Capacity far below the corpus working set, so the replay churns
     through real evictions, not just cold misses. *)
  lockstep_report "wirgen-corpus"
    (Lockstep.run
       (Config.make ~capacity_blocks:64 ())
       (Lockstep.of_references trace))

(* A deterministic chooser both caches share: the smallest resident
   block, so upcall decisions (including bad ones the revocation logic
   may punish) are reproducible. *)
let lockstep_chooser ~candidate ~resident =
  match resident with
  | [] -> None
  | l ->
    Some
      (List.fold_left
         (fun acc b -> if Block.compare b acc < 0 then b else acc)
         candidate l)

let lockstep_storm ~seed ~alloc_policy ~ops:n =
  let rng = Acfc_sim.Rng.create seed in
  let ri = Acfc_sim.Rng.int rng in
  let ops =
    Array.init n (fun _ ->
        let r = ri 100 in
        let pid = Acfc_core.Pid.make (1 + ri 4) in
        let file = ri 6 in
        let block = Block.make ~file ~index:(ri 128) in
        if r < 55 then Lockstep.Read { pid; block; prefetch = ri 8 = 0 }
        else if r < 72 then Lockstep.Write { pid; block; fetch = ri 2 = 0 }
        else if r < 78 then Lockstep.Register_manager pid
        else if r < 83 then Lockstep.Set_priority { pid; file; prio = ri 4 }
        else if r < 86 then
          Lockstep.Set_policy
            { pid; prio = ri 4; policy = (if ri 2 = 0 then Policy.Lru else Policy.Mru) }
        else if r < 89 then begin
          let first = ri 120 in
          (* [last] occasionally below [first]: the Invalid_range error
             path must agree too. *)
          Lockstep.Set_temppri { pid; file; first; last = first + ri 40 - 4; prio = ri 4 }
        end
        else if r < 91 then
          Lockstep.Set_chooser
            { pid; chooser = (if ri 3 = 0 then None else Some lockstep_chooser) }
        else if r < 95 then Lockstep.Sync (if ri 2 = 0 then None else Some file)
        else if r < 98 then Lockstep.Invalidate_file file
        else Lockstep.Unregister_manager pid)
  in
  let config = Config.make ~capacity_blocks:128 ~alloc_policy () in
  lockstep_report
    (Printf.sprintf "storm/%s" (Config.alloc_policy_to_string alloc_policy))
    (Lockstep.run config ops)

let check_lockstep () =
  lockstep_recorded ();
  lockstep_wirgen ();
  List.iteri
    (fun i alloc_policy -> lockstep_storm ~seed:(41 + i) ~alloc_policy ~ops:20_000)
    [ Config.Global_lru; Config.Alloc_lru; Config.Lru_s; Config.Lru_sp;
      Config.Clock_sp ]

(* {2 Fleet determinism replay}

   The fleet engine's Lockstep-style proof: one fleet run to
   completion at jobs 1, 2, 3 and 4, all four rendered reports
   byte-identical — then the same fleet with the lookahead halved
   (twice the barriers, different epoch partition of simulated time),
   which must reproduce every client and server statistic exactly,
   because the barrier merge order is a pure function of (send time,
   client id, seq), independent of the epoch boundary set. *)

let check_fleet () =
  let scn = fleet_scenario ~clients:4 ~scan_passes:3 ~rand_reads:1_500 ~seq_passes:3 in
  let base = Fleet.run ~jobs:1 scn in
  let base_out = Fleet.to_string base in
  List.iter
    (fun jobs ->
      let out = Fleet.to_string (Fleet.run ~jobs scn) in
      if out <> base_out then
        failwith
          (Printf.sprintf "check: fleet report at jobs=%d differs from jobs=1" jobs))
    [ 2; 3; 4 ];
  let fl = match scn.Scenario.fleet with Some f -> f | None -> assert false in
  let halved =
    { fl with Scenario.lookahead_ms = Some (Scenario.fleet_lookahead_ms fl /. 2.0) }
  in
  let rh = Fleet.run ~jobs:2 { scn with Scenario.fleet = Some halved } in
  (* Only the epoch count and the lookahead itself may differ. *)
  let normalized =
    Fleet.to_string
      { rh with Fleet.epochs = base.Fleet.epochs; lookahead_s = base.Fleet.lookahead_s }
  in
  if normalized <> base_out then
    failwith "check: fleet with halved lookahead diverged from the full-epoch run";
  Format.printf
    "  check fleet: 4 clients byte-identical at jobs 1/2/3/4 and at half lookahead@."

let run_check () =
  Format.printf "@.%s@." (String.make 74 '=');
  Format.printf "Equivalence replay: naive reference vs indexed hot paths@.";
  check_disk_queues ();
  check_policies ();
  check_lockstep ();
  check_fleet ();
  Format.printf "  check: all implementations agree@."

(* {2 Baseline regression gate (--baseline)}

   Three kinds of committed gate rows, one per line ('#' comments):

     ratio <name> <speedup>    indexed/naive speedup at commit time; the
                               gate fails below 70% of it. Machine-
                               independent — the primary gate.
     abs <name> <ops_per_sec>  absolute throughput floor; set far below
                               dev-machine measurements so only a
                               catastrophic slowdown (an accidental
                               O(n) walk, a debug build) trips it.
     alloc <name> <words>      minor-heap budget per op; allocation is
                               deterministic and machine-independent,
                               so this is exact — fails above budget.

   A bare "<name> <speedup>" line is a legacy ratio row. The gate also
   reports every measured row that no committed row covers, so new
   benchmarks cannot silently fly ungated. *)

type gate = Ratio of float | Abs of float | Alloc of float

let read_baseline path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ "ratio"; name; v ] -> rows := (name, Ratio (float_of_string v)) :: !rows
         | [ "abs"; name; v ] -> rows := (name, Abs (float_of_string v)) :: !rows
         | [ "alloc"; name; v ] -> rows := (name, Alloc (float_of_string v)) :: !rows
         | [ name; speedup ] -> rows := (name, Ratio (float_of_string speedup)) :: !rows
         | _ -> failwith (Printf.sprintf "baseline: bad line %S" line)
     done
   with End_of_file -> ());
  List.rev !rows

(* Ratio rows whose pair compares worker counts, not implementations:
   their measured value depends on the core count, so the gate only
   applies on machines with at least 4 cores (the CI runners). The
   indexed/naive ratios stay machine-independent and always gate. *)
let scaling_rows = [ "fleet-events/jobs4" ]

let check_baseline ~path perf_rows =
  let find name = List.find_opt (fun r -> r.p_name = name) perf_rows in
  let baseline = read_baseline path in
  let failures = ref 0 in
  let skip name = Format.printf "  baseline %-26s missing measurement, skipped@." name in
  List.iter
    (fun (name, gate) ->
      match gate with
      | Ratio _ when List.mem name scaling_rows && Pool.auto_jobs () < 4 ->
        Format.printf
          "  baseline %-26s scaling ratio needs >= 4 cores (have %d), skipped@."
          name (Pool.auto_jobs ())
      | Ratio expected -> (
        match List.assoc_opt name speedup_pairs with
        | None ->
          incr failures;
          Format.printf "  baseline %-26s ratio row has no naive-twin pair@." name
        | Some slow -> (
          match (find name, find slow) with
          | Some f, Some s when s.ops_per_sec > 0.0 ->
            let measured = f.ops_per_sec /. s.ops_per_sec in
            let floor = 0.7 *. expected in
            let ok = measured >= floor in
            if not ok then incr failures;
            Format.printf
              "  baseline %-26s %10.2fx      ratio floor %8.2fx  %s@." name
              measured floor
              (if ok then "ok" else "REGRESSION")
          | _ -> skip name))
      | Abs floor -> (
        match find name with
        | Some r ->
          let ok = r.ops_per_sec >= floor in
          if not ok then incr failures;
          Format.printf "  baseline %-26s %10.0f op/s   abs floor %9.0f  %s@." name
            r.ops_per_sec floor
            (if ok then "ok" else "REGRESSION")
        | None -> skip name)
      | Alloc budget -> (
        match find name with
        | Some r ->
          let ok = r.alloc_words_per_op <= budget +. 1e-6 in
          if not ok then incr failures;
          Format.printf "  baseline %-26s %10.2f w/op   alloc budget %6.2f  %s@." name
            r.alloc_words_per_op budget
            (if ok then "ok" else "OVER BUDGET")
        | None -> skip name))
    baseline;
  (* A naive twin is covered through its pair's ratio row; anything else
     not named in the file is flying without a gate. *)
  let gated name =
    List.exists (fun (n, _) -> n = name) baseline
    || List.exists
         (fun (fast, slow) ->
           slow = name && List.exists (fun (n, _) -> n = fast) baseline)
         speedup_pairs
  in
  (match List.filter (fun r -> not (gated r.p_name)) perf_rows with
  | [] -> ()
  | ungated ->
    let names = String.concat ", " (List.map (fun r -> r.p_name) ungated) in
    Format.printf "  ungated rows (measured, no baseline entry): %s@." names;
    (* Surface the same one-liner as a GitHub Actions annotation, so a
       new benchmark flying without a gate shows up on the PR itself. *)
    if Sys.getenv_opt "GITHUB_ACTIONS" = Some "true" then
      Format.printf
        "::warning title=ungated perf rows::measured but not gated by %s: %s@."
        path names);
  if !failures > 0 then begin
    Format.printf "[baseline check FAILED: %d gate(s) violated]@." !failures;
    exit 1
  end
  else Format.printf "[baseline check passed: %s]@." path

(* {2 Generated-corpus artifact family (wirgen)}

   Benchmarks the simulator on synthetic workloads drawn from the
   committed default wirgen spec, instead of the eight fixed paper
   applications: replay the corpus's combined demand stream through
   every replacement policy, then run the whole corpus as one
   multi-workload machine through the full simulation. The corpus is a
   pure function of (spec, --corpus-seed), shared by quick and full
   mode, and both fingerprints land in the acfc-bench/1 artifact row
   (spec_hash + corpus_seed, next to scenario_hash) so runs are
   comparable across machines and time. *)

(* The scenario hash of the last wirgen run, for the JSON report. *)
let wirgen_fingerprint = ref None

let run_wirgen ~quick ~corpus_seed ~jobs =
  Format.printf "@.%s@." (String.make 74 '=');
  let spec = Wirgen.default in
  let count = if quick then 4 else 12 in
  Format.printf "Generated corpus: spec %s (%s), seed %d, %d programs@."
    spec.Wirgen.name (Wirgen.hash spec) corpus_seed count;
  let corpus = stored_corpus spec ~seed:corpus_seed ~count in
  let scenario = Wirgen.scenario spec ~seed:corpus_seed ~count in
  wirgen_fingerprint := Some (Acfc_scenario.Scenario.hash scenario, corpus_seed);
  (* Spec and generated scenario land in the store too, so a stored
     corpus is always traceable back to the exact family that drew it. *)
  (match Wirgen.ingest_spec (store ()) spec with
  | Ok _ -> ()
  | Error e -> failwith ("bench: " ^ e));
  (let shash = Acfc_scenario.Scenario.hash scenario in
   match
     Store.add (store ()) ~kind:Kind.Scenario ~label:("scenario:" ^ shash)
       ~expect:shash
       (Acfc_scenario.Scenario.to_string scenario)
   with
  | Ok _ -> ()
  | Error e -> failwith ("bench: " ^ e));
  (* Each program's demand stream, fast-forwarded with the same RNG its
     workload fiber gets, then disjoint file ids so the concatenation
     is one coherent multi-program trace. Each member owns its private
     RNG, so extraction parallelises over the pool — this is what makes
     wirgen honor --jobs / ACFC_JOBS. *)
  let streams =
    Pool.map ?jobs
      (fun (program, rng) -> Wir.references ~rng program)
      (List.combine corpus (Acfc_scenario.Scenario.workload_rngs scenario))
  in
  let trace =
    let next_file = ref 0 in
    Array.concat
      (List.map2
         (fun stream program ->
           let offset = !next_file in
           next_file := offset + Wir.file_count program;
           Array.map
             (fun b -> Block.make ~file:(offset + Block.file b) ~index:(Block.index b))
             stream)
         streams corpus)
  in
  List.iter2
    (fun program stream ->
      Format.printf "  %-28s %s  %5d refs@." program.Wir.name (Wir.hash program)
        (Array.length stream))
    corpus streams;
  Format.printf "  combined trace: %a@." Rt.pp_summary trace;
  (* A cache a third of the working set, so policies actually differ. *)
  let capacity = Stdlib.max 64 (Rt.working_set_size trace / 3) in
  Pool.map ?jobs
    (fun policy -> Policy_sim.run policy ~capacity trace)
    Registry.all
  |> List.iter (fun result -> Format.printf "  %a@." Policy_sim.pp_result result);
  let result = Acfc_scenario.Scenario.run scenario in
  Format.printf
    "  full sim: makespan %.1fs, %d block I/Os, %d hits / %d misses@."
    result.Acfc_workload.Runner.makespan result.Acfc_workload.Runner.total_ios
    result.Acfc_workload.Runner.cache_hits result.Acfc_workload.Runner.cache_misses

(* {2 Policy tournament (tournament)}

   Every registered policy against every wirgen corpus family, scored
   as miss-count regret vs OPT on the identical demand stream. A family
   is a wirgen spec: the committed default ("mixed") plus one
   single-pattern variant per taxonomy entry. Traces are pure functions
   of (spec, --corpus-seed), so regret is deterministic and the
   committed ceilings in bench/tournament_baseline.txt are exact.
   Rows land in the JSON report's "tournament" section (acfc-bench/1);
   --tournament-baseline gates them in CI. See docs/PERF.md. *)

type tournament_row = {
  t_family : string;
  t_policy : string;
  t_seed : int;
  t_spec_hash : string;
  t_refs : int;
  t_misses : int;
  t_opt_misses : int;
  t_regret : int;
  t_hit_rate : float;
}

let tournament_rows : tournament_row list ref = ref []

let tournament_families =
  ("mixed", Wirgen.default)
  :: List.map
       (fun p ->
         let name = "t-" ^ Wirgen.pattern_to_string p in
         (name, { Wirgen.default with Wirgen.name; mix = [ (p, 1.0) ] }))
       Wirgen.patterns

(* The family's combined demand stream, built exactly the way the
   wirgen artifact builds its trace: each program's references
   fast-forwarded with the RNG its workload fiber would get, then
   disjoint file ids. *)
let tournament_trace spec ~seed ~count =
  let corpus = stored_corpus spec ~seed ~count in
  let scenario = Wirgen.scenario spec ~seed ~count in
  let streams =
    List.map
      (fun (program, rng) -> Wir.references ~rng program)
      (List.combine corpus (Acfc_scenario.Scenario.workload_rngs scenario))
  in
  let next_file = ref 0 in
  Array.concat
    (List.map2
       (fun stream program ->
         let offset = !next_file in
         next_file := offset + Wir.file_count program;
         Array.map
           (fun b -> Block.make ~file:(offset + Block.file b) ~index:(Block.index b))
           stream)
       streams corpus)

let run_tournament ~corpus_seed ~jobs =
  Format.printf "@.%s@." (String.make 74 '=');
  Format.printf
    "Policy tournament: every policy x every corpus family, regret vs OPT@.";
  let count = 2 in
  let rows =
    List.concat_map
      (fun (family, spec) ->
        let trace = tournament_trace spec ~seed:corpus_seed ~count in
        (* A cache a third of the working set, so policies actually
           differ (the wirgen artifact's sizing rule). *)
        let capacity = Stdlib.max 64 (Rt.working_set_size trace / 3) in
        let results =
          Pool.map ?jobs
            (fun policy -> Policy_sim.run policy ~capacity trace)
            Registry.all
        in
        let opt_misses =
          match
            List.find_opt (fun r -> r.Policy_sim.policy = "OPT") results
          with
          | Some r -> r.Policy_sim.misses
          | None -> failwith "tournament: OPT missing from the registry"
        in
        Format.printf "  %-16s %6d refs  capacity %4d  OPT misses %d@." family
          (Array.length trace) capacity opt_misses;
        List.map
          (fun r ->
            let row =
              {
                t_family = family;
                t_policy = r.Policy_sim.policy;
                t_seed = corpus_seed;
                t_spec_hash = Wirgen.hash spec;
                t_refs = r.Policy_sim.references;
                t_misses = r.Policy_sim.misses;
                t_opt_misses = opt_misses;
                t_regret = r.Policy_sim.misses - opt_misses;
                t_hit_rate =
                  float_of_int r.Policy_sim.hits
                  /. float_of_int (Stdlib.max r.Policy_sim.references 1);
              }
            in
            Format.printf "    %-12s regret %5d   hit rate %5.1f%%@."
              row.t_policy row.t_regret (100.0 *. row.t_hit_rate);
            row)
          results)
      tournament_families
  in
  tournament_rows := !tournament_rows @ rows

(* Gate file: one "<family> <policy> <max_regret>" line per row ('#'
   comments). Regret is deterministic at the committed seed, so the
   ceilings are exact measured values; any increase is a behaviour
   change and fails. A ceiling with no measured row (renamed policy or
   family) fails too, so the file cannot go stale silently. *)
let read_tournament_baseline path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ family; policy; ceiling ] ->
           rows := ((family, policy), int_of_string ceiling) :: !rows
         | _ -> failwith (Printf.sprintf "tournament baseline: bad line %S" line)
     done
   with End_of_file -> ());
  List.rev !rows

let check_tournament_baseline ~path rows =
  let baseline = read_tournament_baseline path in
  let failures = ref 0 in
  List.iter
    (fun row ->
      match List.assoc_opt (row.t_family, row.t_policy) baseline with
      | None ->
        Format.printf "  tournament %-16s %-12s regret %5d   (no ceiling)@."
          row.t_family row.t_policy row.t_regret
      | Some ceiling ->
        let ok = row.t_regret <= ceiling in
        if not ok then incr failures;
        Format.printf "  tournament %-16s %-12s regret %5d   ceiling %5d  %s@."
          row.t_family row.t_policy row.t_regret ceiling
          (if ok then "ok" else "REGRESSION"))
    rows;
  List.iter
    (fun ((family, policy), _) ->
      if
        not
          (List.exists
             (fun r -> r.t_family = family && r.t_policy = policy)
             rows)
      then begin
        incr failures;
        Format.printf "  tournament %-16s %-12s ceiling has no measured row@."
          family policy
      end)
    baseline;
  if !failures > 0 then begin
    Format.printf "[tournament gate FAILED: %d violation(s)]@." !failures;
    exit 1
  end
  else Format.printf "[tournament gate passed: %s]@." path

(* {2 Machine-readable report (--json)} *)

(* The fingerprint of the exact scenario grid behind an artifact row
   (fig5-par rows fingerprint the fig5 grid they time); null for rows
   with no scenario grid (micro, perf, check). *)
let scenario_hash opts name =
  let base =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let scenarios =
    match base with
    | "all" ->
      List.concat_map
        (Report.artifact_scenarios opts)
        (Report.artifacts @ [ "ablations"; "criteria" ])
    | _ -> Report.artifact_scenarios opts base
  in
  match scenarios with
  | [] -> None
  | grid -> Some (Acfc_scenario.Scenario.hash_list grid)

(* The acfc-bench/1 schema: a stable shape CI can diff across runs.
   NaN (no OLS estimate) becomes null, since JSON has no NaN. *)
let write_json ~path ~quick ~runs ~jobs ~opts ~artifacts ~micro ~perf ~total_wall_s =
  let module J = Acfc_obs.Json in
  let num v = if Float.is_finite v then J.Num v else J.Null in
  let doc =
    J.Obj
      [
        ("schema", J.Str "acfc-bench/1");
        ("quick", J.Bool quick);
        ("runs", J.Num (float_of_int runs));
        ("jobs", J.Num (float_of_int jobs));
        ( "artifacts",
          J.List
            (List.map
               (fun (name, wall_s) ->
                 (* wirgen rows carry the corpus fingerprint: the
                    generated scenario's hash plus the (spec, seed)
                    pair it is a pure function of. *)
                 let hash, spec_hash, corpus_seed =
                   match (name, !wirgen_fingerprint) with
                   | "wirgen", Some (scenario_hash, seed) ->
                     ( J.Str scenario_hash,
                       J.Str (Wirgen.hash Wirgen.default),
                       J.Num (float_of_int seed) )
                   | _ ->
                     ( (match scenario_hash opts name with
                       | Some h -> J.Str h
                       | None -> J.Null),
                       J.Null,
                       J.Null )
                 in
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("wall_s", num wall_s);
                     ("scenario_hash", hash);
                     ("spec_hash", spec_hash);
                     ("corpus_seed", corpus_seed);
                   ])
               artifacts) );
        ( "micro",
          J.List
            (List.map
               (fun (name, ns_per_run, r2) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("ns_per_run", num ns_per_run);
                     ("r2", num r2);
                   ])
               micro) );
        ( "perf",
          J.List
            (List.map
               (fun r ->
                 J.Obj
                   [
                     ("name", J.Str r.p_name);
                     ("ops_per_sec", num r.ops_per_sec);
                     ("alloc_words_per_op", num r.alloc_words_per_op);
                     ("ops", J.Num (float_of_int r.p_ops));
                   ])
               perf) );
        ( "tournament",
          J.List
            (List.map
               (fun r ->
                 J.Obj
                   [
                     ("family", J.Str r.t_family);
                     ("policy", J.Str r.t_policy);
                     ("corpus_seed", J.Num (float_of_int r.t_seed));
                     ("spec_hash", J.Str r.t_spec_hash);
                     ("refs", J.Num (float_of_int r.t_refs));
                     ("misses", J.Num (float_of_int r.t_misses));
                     ("opt_misses", J.Num (float_of_int r.t_opt_misses));
                     ("regret", J.Num (float_of_int r.t_regret));
                     ("hit_rate", num r.t_hit_rate);
                   ])
               !tournament_rows) );
        ("total_wall_s", num total_wall_s);
      ]
  in
  let contents = J.to_string doc ^ "\n" in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
  (* Every emitted report is also ingested (exact file bytes, so
     [store add FILE] on the artifact reproduces the digest); the
     stored history is what [bench timeline] scans. No label: a
     report's identity is its content, and each run's bytes differ. *)
  (match Store.add (store ()) ~kind:Kind.Bench_report contents with
  | Ok outcome ->
    let digest =
      match outcome with
      | Store.Created e | Store.Exists e -> e.Acfc_store.Manifest.digest
    in
    Format.printf "[bench results -> %s (stored as %s)]@." path digest
  | Error e -> failwith ("bench: " ^ e))

(* {2 Regression timeline (timeline)}

   Scans the store's bench-report history and prints each perf row's
   ops/sec and words/op across stored runs, flagging >30% consecutive
   ops/sec drops; [--gate] turns flagged rows into a nonzero exit.
   History only accumulates in a persistent store (--store/ACFC_STORE);
   an ephemeral run sees just the reports it ingested itself. *)

let timeline_failures = ref 0

let run_timeline () =
  Format.printf "@.%s@." (String.make 74 '=');
  Format.printf "Bench regression timeline over stored acfc-bench/1 reports@.";
  match Acfc_store.Timeline.scan (store ()) with
  | Error e -> failwith ("bench: " ^ e)
  | Ok rows ->
    Acfc_store.Timeline.render Format.std_formatter rows;
    let flagged = Acfc_store.Timeline.regressions rows in
    timeline_failures := List.length flagged;
    if flagged <> [] then
      Format.printf "[timeline: %d row(s) regressed >%.0f%%]@."
        (List.length flagged)
        (Acfc_store.Timeline.default_threshold *. 100.0)

(* {2 Sequential vs parallel (fig5-par)} *)

(* Times the fig5 grid at jobs=1 and jobs=n, checks the rendered tables
   are byte-identical (the acfc.par determinism contract), and returns
   both wall times as artifact rows for the machine-readable report. *)
let run_fig5_par opts ~jobs =
  let time f =
    let t = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t)
  in
  let render jobs () =
    Format.asprintf "%a" Multi.print
      (Multi.run ~jobs ~runs:opts.Report.runs ~sizes:opts.Report.sizes ())
  in
  Format.printf "@.%s@.@." (String.make 74 '=');
  Format.printf "fig5 grid: sequential vs %d domains@." jobs;
  let seq_out, seq_wall = time (render 1) in
  let par_out, par_wall = time (render jobs) in
  if seq_out <> par_out then
    failwith "fig5-par: parallel output differs from sequential";
  Format.printf
    "  jobs=1: %.1fs   jobs=%d: %.1fs   speedup %.2fx   (outputs identical)@."
    seq_wall jobs par_wall (seq_wall /. par_wall);
  [ ("fig5/jobs=1", seq_wall); (Printf.sprintf "fig5/jobs=%d" jobs, par_wall) ]

(* {2 Driver} *)

let () =
  let quick = ref false in
  let runs = ref 3 in
  let jobs = ref None in
  let json_out = ref None in
  let baseline = ref None in
  let tournament_baseline = ref None in
  let corpus_seed = ref 0 in
  let gate = ref false in
  let selected = ref [] in
  let spec =
    [
      ("--quick", Arg.Set quick, "1 run, 2 cache sizes per artifact");
      ( "--store",
        Arg.String (fun d -> store_dir := Some d),
        "DIR persistent content-addressed artifact store (default ACFC_STORE, \
         else an ephemeral per-run store)" );
      ( "--gate",
        Arg.Set gate,
        "with timeline: exit non-zero on any row with a >30% ops/sec drop" );
      ("--runs", Arg.Set_int runs, "N cold-start runs per data point (default 3)");
      ( "--corpus-seed",
        Arg.Set_int corpus_seed,
        "N base seed for the wirgen generated-corpus family (default 0; shared \
         by --quick and full mode, recorded in the JSON report)" );
      ( "--jobs",
        Arg.Int (fun n -> jobs := Some n),
        "N run grid cells on N domains (default ACFC_JOBS, else sequential)" );
      ( "--json",
        Arg.String (fun f -> json_out := Some f),
        "FILE write machine-readable results (acfc-bench/1 schema)" );
      ( "--baseline",
        Arg.String (fun f -> baseline := Some f),
        "FILE with perf: fail on a >30% speedup regression vs this baseline" );
      ( "--tournament-baseline",
        Arg.String (fun f -> tournament_baseline := Some f),
        "FILE with tournament: fail on any policy whose regret vs OPT exceeds \
         the committed per-family ceiling" );
    ]
  in
  let usage =
    "main.exe [--quick] [--runs N] [--jobs N] [--json FILE] [--baseline FILE] \
     [--tournament-baseline FILE] [--corpus-seed N] [--store DIR] [--gate] \
     [all|micro|perf|check|wirgen|tournament|timeline|ablations|criteria|fig5-par|fig4|fig5|fig6|table1..table6]*"
  in
  Arg.parse spec (fun a -> selected := a :: !selected) usage;
  let selected = if !selected = [] then [ "all"; "micro" ] else List.rev !selected in
  let opts =
    if !quick then Report.quick else { Report.default with runs = !runs }
  in
  let opts = { opts with Report.jobs = !jobs } in
  let eff_jobs = match !jobs with Some n -> n | None -> Pool.default_jobs () in
  let t0 = Unix.gettimeofday () in
  let micro_rows = ref [] in
  let perf_rows = ref [] in
  let artifact_walls = ref [] in
  List.iter
    (fun artifact ->
      let t = Unix.gettimeofday () in
      (match artifact with
      | "micro" -> micro_rows := !micro_rows @ run_micro ()
      | "perf" -> perf_rows := !perf_rows @ run_perf ()
      | "check" -> run_check ()
      | "wirgen" ->
        run_wirgen ~quick:!quick ~corpus_seed:!corpus_seed ~jobs:opts.Report.jobs
      | "tournament" ->
        run_tournament ~corpus_seed:!corpus_seed ~jobs:opts.Report.jobs
      | "timeline" -> run_timeline ()
      | "ablations" ->
        Format.printf "@.%s@.@." (String.make 74 '=');
        Ablations.print_all ?jobs:opts.Report.jobs ~runs:opts.Report.runs
          Format.std_formatter ()
      | "criteria" ->
        Format.printf "@.%s@.@." (String.make 74 '=');
        Criteria.print Format.std_formatter
          (Criteria.run_all ?jobs:opts.Report.jobs ~runs:opts.Report.runs ())
      | "fig5-par" ->
        (* On the CI runners auto picks the vCPU count; locally the flag
           wins, and a 1-CPU box still exercises the domain machinery. *)
        let par_jobs = if eff_jobs > 1 then eff_jobs else max 2 (Pool.auto_jobs ()) in
        List.iter
          (fun row -> artifact_walls := row :: !artifact_walls)
          (run_fig5_par opts ~jobs:par_jobs)
      | "all" ->
        Report.run_all opts Format.std_formatter;
        Format.printf "@.%s@.@." (String.make 74 '=');
        Ablations.print_all ?jobs:opts.Report.jobs ~runs:opts.Report.runs
          Format.std_formatter ();
        Format.printf "@.%s@.@." (String.make 74 '=');
        Criteria.print Format.std_formatter
          (Criteria.run_all ?jobs:opts.Report.jobs ~runs:opts.Report.runs ())
      | name -> Report.run_artifact opts Format.std_formatter name);
      if artifact <> "fig5-par" then
        artifact_walls := (artifact, Unix.gettimeofday () -. t) :: !artifact_walls)
    selected;
  let total_wall_s = Unix.gettimeofday () -. t0 in
  Format.printf "@.[bench completed in %.1fs]@." total_wall_s;
  (match !json_out with
  | None -> ()
  | Some path ->
    write_json ~path ~quick:!quick ~runs:opts.Report.runs ~jobs:eff_jobs ~opts
      ~artifacts:(List.rev !artifact_walls) ~micro:!micro_rows ~perf:!perf_rows
      ~total_wall_s);
  (* The gates run last so the JSON artifact is written even on failure. *)
  (match !tournament_baseline with
  | None -> ()
  | Some path ->
    if !tournament_rows = [] then begin
      Format.printf
        "[--tournament-baseline requires the tournament family to have run]@.";
      exit 2
    end;
    check_tournament_baseline ~path !tournament_rows);
  (match !baseline with
  | None -> ()
  | Some path ->
    if !perf_rows = [] then begin
      Format.printf "[--baseline requires the perf family to have run]@.";
      exit 2
    end;
    check_baseline ~path !perf_rows);
  if !gate && !timeline_failures > 0 then begin
    Format.printf "[timeline gate FAILED: %d row(s) regressed]@."
      !timeline_failures;
    exit 1
  end
