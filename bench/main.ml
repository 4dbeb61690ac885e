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
                              disk-queue, fs-read, policy-miss, cache-churn,
                              fleet-events): ops/sec, minor-heap words per
                              op and in-run growth t(16n)/t(n), into the
                              JSON "perf" section (see docs/PERF.md)
     main.exe check           equivalence replay: recorded + synthetic
                              reference traces through the naive and the
                              indexed disk-queue pickers and replacement
                              policies, and the columnar cache against
                              its executable spec; exits non-zero on any
                              divergence
     main.exe tournament      policy tournament: every registered policy
                              (stock + adaptive) over every wirgen corpus
                              family, scored as miss-count regret vs OPT;
                              rows land in the JSON "tournament" section
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
     main.exe --gate FILE     check the perf and tournament families that
                              ran against the committed gate file
                              (bench/gates.txt: alloc budgets, growth
                              bounds, the scaling floor, regret
                              ceilings); exits 1 on any violation and 2
                              when none of the file's families ran
*)

module Config = Acfc_core.Config
module Cache = Acfc_core.Cache
module Policy = Acfc_core.Policy
module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Pool = Acfc_par.Pool
module Fleet = Acfc_fleet.Fleet
module Scenario = Acfc_scenario.Scenario
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

(* One multi-program trace: each program's demand stream in corpus
   order, with file ids shifted so that no two programs share a file. *)
let combined_trace corpus streams =
  let next_file = ref 0 in
  Array.concat
    (List.map2
       (fun program stream ->
         let offset = !next_file in
         next_file := offset + Wir.file_count program;
         Array.map
           (fun b -> Block.make ~file:(offset + Block.file b) ~index:(Block.index b))
           stream)
       corpus streams)

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
  let quick grid = Bechamel.Staged.stage @@ fun () -> ignore (Measure.run ~runs:1 (grid ())) in
  [
    Bechamel.Test.make ~name:"fig4/din-6.4MB"
      (quick (Single.grid ~sizes:[ 6.4 ] ~apps:[ "din" ]));
    Bechamel.Test.make ~name:"table5/cs1-6.4MB"
      (quick (Single.grid ~sizes:[ 6.4 ] ~apps:[ "cs1" ]));
    Bechamel.Test.make ~name:"table6/ldk-6.4MB"
      (quick (Single.grid ~sizes:[ 6.4 ] ~apps:[ "ldk" ]));
    Bechamel.Test.make ~name:"fig5/cs3+ldk-6.4MB"
      (quick (Multi.grid ~sizes:[ 6.4 ] ~combos:[ [ "cs3"; "ldk" ] ]));
    Bechamel.Test.make ~name:"fig6/cs2+gli-6.4MB"
      (quick (Alloc_lru.grid ~sizes:[ 6.4 ] ~combos:[ [ "cs2"; "gli" ] ]));
    Bechamel.Test.make ~name:"table1/read500" (quick (Placeholders.grid ~ns:[ 500 ]));
    Bechamel.Test.make ~name:"table2/din" (quick (Foolish.grid ~apps:[ "din" ]));
    Bechamel.Test.make ~name:"table3/din"
      (quick (Smart_oblivious.grid ~apps:[ "din" ] ~two_disks:false));
    Bechamel.Test.make ~name:"table4/din"
      (quick (Smart_oblivious.grid ~apps:[ "din" ] ~two_disks:true));
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

   Hand-rolled steady-state loops (not bechamel). Each row reports
   throughput (ops/sec) and minor-heap words per op at its base size n.
   A row with a growth check also times the same loop at 16n in the
   same run and reports t(16n)/t(n) per op: an O(1) or O(log n) path
   reads about 1-2x, an accidental O(n) walk about 16x, and a host that
   runs the whole bench slower moves both sizes alike. Only counts and
   growth are gated (bench/gates.txt); ops/sec is reported for reading,
   and throughput claims belong to perfbench/. See docs/PERF.md. *)

module Sq = Acfc_disk.Sched_queue
module Rt = Acfc_replacement.Trace
module Policy_sim = Acfc_replacement.Policy_sim
module Reference = Acfc_oracle.Reference
module Naive = Acfc_oracle.Sched_queue_naive
module Cores = Acfc_policy.Cores
module Core = Acfc_policy.Policy_core
module Registry = Acfc_policy.Registry
module Engine = Acfc_sim.Engine

type perf_row = {
  p_name : string;
  ops_per_sec : float;
  alloc_words_per_op : float;  (* nan where this domain's words are not the row's *)
  p_ops : int;  (* ops per timed pass at the base size *)
  growth : float option;  (* t(16n)/t(n) per op *)
}

(* A timed loop over fresh state: [run] performs [ops] operations and
   [stop] releases what the state holds (sleeping fibers). *)
type loop = { ops : int; run : unit -> unit; stop : unit -> unit }

let loop ops run = { ops; run; stop = ignore }

(* Words this domain has allocated: on the minor heap, plus the blocks
   too large for it that went straight to the major heap (a core's
   per-pass tables), so an alloc row counts both. *)
let allocated_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. (major -. promoted)

(* Best seconds per op of [prepare size]'s loop over three passes, each
   on fresh state, with the sizes interleaved pass by pass so that host
   drift hits them alike. Scheduler and frequency jitter only ever slow
   a pass down, so the minimum is the least noisy estimate. Allocation
   is deterministic, so the first pass's words per op suffice. *)
let time_sizes sizes prepare =
  let best = Array.map (fun _ -> Float.infinity) sizes in
  let words = ref 0.0 and ops = ref 0 in
  for pass = 1 to 3 do
    Array.iteri
      (fun i size ->
        let l = prepare size in
        let w0 = allocated_words () in
        let t0 = Unix.gettimeofday () in
        l.run ();
        let wall = Unix.gettimeofday () -. t0 in
        if pass = 1 && i = 0 then begin
          words := (allocated_words () -. w0) /. float_of_int l.ops;
          ops := l.ops
        end;
        l.stop ();
        (* Clamped, so a pass inside the timer's resolution cannot
           report an infinite rate. *)
        best.(i) <- Float.min best.(i) (Float.max wall 1e-9 /. float_of_int l.ops))
      sizes
  done;
  (best, !words, !ops)

(* The row at base size [n]; with [~grow:true] also timed at 16n. *)
let measure_perf ?(grow = false) ~name n prepare =
  let best, words, ops = time_sizes (if grow then [| n; 16 * n |] else [| n |]) prepare in
  {
    p_name = name;
    ops_per_sec = 1.0 /. best.(0);
    alloc_words_per_op = words;
    p_ops = ops;
    growth = (if grow then Some (best.(1) /. best.(0)) else None);
  }

(* One op = one dispatch (pick) plus one arrival (add) at a steady
   queue depth of 256 (and 4,096), over a fixed pseudo-random address
   sequence. The head follows the served request, as in the real
   drive. At a depth of 64 an op's fixed cost hides a linear walk: a
   scan of both SCAN heaps per pick read only 3.8x from 64 to 1,024. *)
let disk_queue_addrs =
  let rng = Acfc_sim.Rng.create 42 in
  Array.init 4096 (fun _ -> Acfc_sim.Rng.int rng 100_000)

let bench_disk_queue (label, discipline) =
  measure_perf ~grow:true ~name:("disk-queue/" ^ label) 256 (fun depth ->
      let q = Sq.create discipline in
      let n = Array.length disk_queue_addrs in
      for i = 0 to depth - 1 do
        let addr = disk_queue_addrs.(i land (n - 1)) in
        Sq.add q ~addr addr
      done;
      let pos = ref depth and head = ref 0 in
      let step () =
        head := Sq.pick q ~head:!head;
        let addr = disk_queue_addrs.(!pos land (n - 1)) in
        Sq.add q ~addr addr;
        incr pos
      in
      for _ = 1 to 20_000 do
        step ()
      done;
      loop 200_000 (fun () ->
          for _ = 1 to 200_000 do
            step ()
          done))

(* One op = one trace reference through Policy_sim.run against a full
   cache of 4,096 resident blocks: the fill, then 6,000 random
   references over 8,192 blocks. The row's words include the core's
   tables, made once per pass. *)
let policy_miss_trace =
  let rng = Acfc_sim.Rng.create 9 in
  let fill = Array.init 4096 (fun i -> Block.make ~file:0 ~index:i) in
  let tail = Rt.random ~rng ~file:0 ~blocks:8192 ~length:6_000 in
  Array.append fill tail

(* The growth loop of a policy row: the core driven the way
   Policy_sim.run drives it, with only the 100,000 random references
   over twice the capacity that follow the fill timed. *)
let policy_tail (module P : Core.CORE) capacity =
  let rng = Acfc_sim.Rng.create 9 in
  let trace =
    Array.append
      (Array.init capacity (fun i -> Block.make ~file:0 ~index:i))
      (Rt.random ~rng ~file:0 ~blocks:(2 * capacity) ~length:100_000)
  in
  let keys = Array.map Block.pack trace in
  let st = P.create ~capacity ~future:trace in
  (* Resident flags by id; no core holds more than 3 x capacity ids. *)
  let resident = Bytes.make ((3 * capacity) + 16) '\000' in
  let held = ref 0 in
  let step pos =
    let key = keys.(pos) in
    let id = P.find st key in
    if id >= 0 && Bytes.get resident id <> '\000' then P.reference st ~pos id
    else begin
      if !held >= capacity then begin
        let victim = P.victim st ~pos ~missing:id in
        Bytes.set resident victim '\000';
        P.evict st victim
      end
      else incr held;
      Bytes.set resident (P.admit st ~pos key) '\001'
    end
  in
  for pos = 0 to capacity - 1 do
    step pos
  done;
  loop 100_000 (fun () ->
      for pos = capacity to Array.length trace - 1 do
        step pos
      done)

let bench_policy_miss () =
  List.map
    (fun (name, core) ->
      let row =
        measure_perf ~name 4096 (fun capacity ->
            loop (Array.length policy_miss_trace) (fun () ->
                ignore (Policy_sim.run core ~capacity policy_miss_trace)))
      in
      { row with growth = (measure_perf ~grow:true ~name 1024 (policy_tail core)).growth })
    [
      ("policy-miss/lru2", (module Cores.Lru_2 : Core.CORE));
      ("policy-miss/2q", (module Cores.Two_q));
      ("policy-miss/opt", (module Cores.Opt));
      ("policy-miss/rand", (module Cores.Rand));
      ("policy-miss/arc", (module Cores.Arc));
      ("policy-miss/awrp", (module Cores.Awrp));
      ("policy-miss/perceptron", (module Cores.Perceptron));
    ]

(* One op = one simulator event (a timer fire through the engine's
   event heap and effect handler), with engine creation and fiber
   spawn/teardown inside the loop, so it is dominated by OCaml's
   per-fiber stack allocation; the /steady row isolates the per-event
   cost. *)
let bench_engine_events () =
  let delays = 8 in
  measure_perf ~name:"engine-events" 32 (fun fibers ->
      let once () =
        let e = Engine.create () in
        for _ = 1 to fibers do
          Engine.spawn e (fun () ->
              for _ = 1 to delays do
                Engine.delay e 1.0
              done)
        done;
        Engine.run e
      in
      for _ = 1 to 20 do
        once ()
      done;
      loop (400 * fibers * delays) (fun () ->
          for _ = 1 to 400 do
            once ()
          done))

(* Steady-state timer stream: a long-lived engine whose 256 (and
   4,096) sleepers never finish, driven through [run_until]. One op =
   one timer event, the engine's per-event floor: a heap pop and push.
   With 32 sleepers a linear walk of the event heap per pop read only
   4.2-4.8x from 32 to 512. *)
let bench_engine_steady () =
  measure_perf ~grow:true ~name:"engine-events/steady" 256 (fun fibers ->
      let e = Engine.create () in
      let go = ref true in
      for _ = 1 to fibers do
        Engine.spawn e (fun () ->
            while !go do
              Engine.delay e 1.0
            done)
      done;
      let horizon = ref 0.0 in
      let tick () =
        horizon := !horizon +. 1.0;
        Engine.run_until e !horizon
      in
      for _ = 1 to 100 do
        tick ()
      done;
      let ticks = 524_288 / fibers in
      {
        ops = ticks * fibers;
        run =
          (fun () ->
            for _ = 1 to ticks do
              tick ()
            done);
        (* Let the sleepers see the flag and finish, releasing their
           fiber stacks. *)
        stop =
          (fun () ->
            go := false;
            Engine.run_until e (!horizon +. 1.0));
      })

(* Batched same-instant completion delivery: each tick schedules a
   burst of 256 (and 4,096) jobs due exactly now, the shape of a disk
   batch completing or an ivar broadcast, which the engine routes
   through the ready ring (O(1) push/pop, no heap sift, no event
   record). One op = one delivered completion. *)
let bench_engine_batch () =
  let nop () = () in
  measure_perf ~grow:true ~name:"engine-events/batch" 256 (fun burst ->
      let e = Engine.create () in
      let tick () =
        for _ = 1 to burst do
          Engine.schedule e ~at:0.0 nop
        done;
        Engine.run_until e 0.0
      in
      for _ = 1 to 4 do
        tick ()
      done;
      let bursts = 1_048_576 / burst in
      loop (bursts * burst) (fun () ->
          for _ = 1 to bursts do
            tick ()
          done))

(* One op = one contended [Resource.use]: 3 (and 48) fibers on one
   resource, each booking a second of service in turn, so every use
   books its slot behind the others' and sleeps straight to its finish,
   one heap sleep and nothing else. 200,000 uses in all, run to
   completion on a fresh engine. *)
let bench_resource_contended () =
  measure_perf ~grow:true ~name:"resource/contended" 3 (fun fibers ->
      let e = Engine.create () in
      let r = Acfc_sim.Resource.create e () in
      let uses = 200_000 / fibers in
      for _ = 1 to fibers do
        Engine.spawn e (fun () ->
            for _ = 1 to uses do
              Acfc_sim.Resource.use r ~service:1.0
            done)
      done;
      loop (uses * fibers) (fun () -> Engine.run e))

(* One op = one queued [Disk.io]: 4 (and 64) fibers reading from one
   FCFS RZ56 drive on a bus, over the fixed pseudo-random addresses of
   the disk-queue rows. The drive has no rng, so the loop draws nothing:
   each request parks under its fiber's key, is handed the drive,
   positions and books the bus. 200,000 requests in all, run to
   completion on a fresh engine. *)
let bench_disk_io_queued () =
  let params = Acfc_disk.Params.rz56 in
  let addrs =
    Array.map (fun a -> a mod params.Acfc_disk.Params.capacity_blocks) disk_queue_addrs
  in
  measure_perf ~grow:true ~name:"disk-io/queued" 4 (fun fibers ->
      let e = Engine.create () in
      let bus = Acfc_disk.Bus.create e () in
      let d = Acfc_disk.Disk.create e ~bus params in
      let ios = 200_000 / fibers in
      for f = 0 to fibers - 1 do
        Engine.spawn e (fun () ->
            for i = 0 to ios - 1 do
              Acfc_disk.Disk.io d Acfc_disk.Disk.Read ~addr:addrs.(((i * fibers) + f) land 4095)
            done)
      done;
      loop (ios * fibers) (fun () -> Engine.run e))

(* One op = one block read through [Fs.read], one call per block, by one
   fiber alternating two files on an RZ56 drive behind a bus, with a
   1,024-block cache and the CPU as a calendar: the next block of a
   sequential scan of a 4,096-block file, which the read-ahead job has
   already submitted (the read waits for its landing), then a
   pseudo-random block of a 65,536-block file, which misses and blocks
   on the drive. Each pair runs a read-ahead job, a fetch that
   completes by callback, a demand request that resumes its fiber
   inside the completion, an in-flight wait and the CPU bookings, so a
   read-ahead spawned as a fiber, or a drive that sleeps in its
   caller's fiber, costs words per op. 100,000 ops in all, run to
   completion on a fresh engine. *)
let bench_fs_readahead () =
  let module Fs = Acfc_fs.Fs in
  let bb = Acfc_disk.Params.block_bytes in
  measure_perf ~name:"fs-read/readahead" 4096 (fun blocks ->
      let e = Engine.create () in
      let bus = Acfc_disk.Bus.create e () in
      let disk = Acfc_disk.Disk.create e ~bus Acfc_disk.Params.rz56 in
      let cpu = Acfc_sim.Resource.create e () in
      let fs = Fs.create e ~config:(Config.make ~capacity_blocks:1024 ()) ~cpu () in
      let scan = Fs.create_file fs ~name:"scan" ~disk ~size_bytes:(blocks * bb) () in
      let random = Fs.create_file fs ~name:"random" ~disk ~size_bytes:(65_536 * bb) () in
      let pairs = 50_000 in
      Engine.spawn e (fun () ->
          for i = 0 to pairs - 1 do
            Fs.read fs ~pid:pid0 scan ~off:(i mod blocks * bb) ~len:bb;
            Fs.read fs ~pid:pid0 random
              ~off:(disk_queue_addrs.(i land 4095) land 65_535 * bb)
              ~len:bb
          done);
      loop (2 * pairs) (fun () -> Engine.run e))

(* One op = one miss-plus-eviction through the full BUF/ACM cache of
   1,024 (and 16,384) blocks. With [managed], pid 0 is a manager that
   runs MRU at priority 0, so every miss also takes the managed path:
   ACM's [new_block], the manager's choice, the swap and its
   placeholder. *)
let bench_cache_churn ~name ~managed =
  measure_perf ~grow:true ~name 1024 (fun blocks ->
      let cache = Cache.create (Config.make ~capacity_blocks:blocks ()) in
      if managed then begin
        (match Cache.register_manager cache pid0 with Ok () -> () | Error _ -> assert false);
        match Cache.set_policy cache pid0 ~prio:0 Policy.Mru with
        | Ok () -> ()
        | Error _ -> assert false
      end;
      let next = ref 0 in
      let miss () =
        ignore (Cache.read cache ~pid:pid0 (Block.make ~file:0 ~index:!next));
        incr next
      in
      for _ = 1 to blocks + 10_000 do
        miss ()
      done;
      loop 200_000 (fun () ->
          for _ = 1 to 200_000 do
            miss ()
          done))

(* Macro row: a wirgen-corpus demand stream through the full columnar
   cache, generated workloads with a real hit/miss mixture and file
   locality, beside cache-churn's all-miss storm. One op = one block
   reference; the corpus is a pure function of (default spec, seed 1),
   so the row is comparable across runs. *)
let bench_wir_corpus () =
  let corpus = stored_corpus Wirgen.default ~seed:1 ~count:4 in
  let trace = combined_trace corpus (List.map (fun p -> Wir.references p) corpus) in
  let n = Array.length trace in
  measure_perf ~name:"cache-wir-corpus" 1024 (fun blocks ->
      let cache = Cache.create (Config.make ~capacity_blocks:blocks ()) in
      let pos = ref 0 in
      let step () =
        ignore (Cache.read cache ~pid:pid0 trace.(!pos));
        incr pos;
        if !pos = n then pos := 0
      in
      for _ = 1 to min n 50_000 do
        step ()
      done;
      loop 400_000 (fun () ->
          for _ = 1 to 400_000 do
            step ()
          done))

(* {2 Fleet perf family (fleet-events)}

   The whole domain-parallel fleet engine as one benchmark: N client
   machines (each an engine + columnar cache + analytic local disks)
   in front of a shared server cache, run to completion at --jobs 1, 2
   and 4. One op = one engine event aggregated over every client, so
   ops/sec is the fleet's events-per-second throughput. The reports
   must be byte-identical across the jobs values (the conservative-
   lookahead determinism contract); the jobs4/jobs1 ratio is the
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
        let w0 = allocated_words () in
        let t0 = Unix.gettimeofday () in
        let r = Fleet.run ~jobs scn in
        let wall = Unix.gettimeofday () -. t0 in
        if pass = 1 then begin
          words := allocated_words () -. w0;
          events := r.Fleet.events;
          outputs := (name, Fleet.to_string r) :: !outputs
        end;
        if wall < !best then best := wall
      done;
      rows :=
        {
          p_name = name;
          ops_per_sec = float_of_int !events /. Float.max !best 1e-9;
          (* Minor words are domain-local, so only at jobs 1 (whose Team
             runs everything on this domain) are they the fleet's. *)
          alloc_words_per_op =
            (if jobs = 1 then !words /. float_of_int (max !events 1) else Float.nan);
          p_ops = !events;
          growth = None;
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
  Format.printf "Hot-path microbenchmarks: ops/sec, minor words per op, growth t(16n)/t(n)@.";
  let rows =
    [
      bench_engine_events ();
      bench_engine_steady ();
      bench_engine_batch ();
      bench_resource_contended ();
      bench_disk_io_queued ();
      bench_fs_readahead ();
    ]
    @ List.map bench_disk_queue [ ("fcfs", Sq.Fcfs); ("scan", Sq.Scan) ]
    @ bench_policy_miss ()
    @ [
        bench_cache_churn ~name:"cache-churn" ~managed:false;
        bench_cache_churn ~name:"cache-churn/managed" ~managed:true;
        bench_wir_corpus ();
      ]
    @ bench_fleet ()
  in
  List.iter
    (fun r ->
      Format.printf "  %-28s %12.0f ops/s   %8.2f w/op%s@." r.p_name r.ops_per_sec
        r.alloc_words_per_op
        (match r.growth with Some g -> Printf.sprintf "   growth %5.2fx" g | None -> ""))
    rows;
  rows

(* The perf family's gate measurements: each row's words per op and
   growth, and the fleet's jobs4/jobs1 scaling ratio. *)
let perf_measurements rows =
  let rate name =
    List.find_map (fun r -> if r.p_name = name then Some r.ops_per_sec else None) rows
  in
  List.concat_map
    (fun r ->
      (if Float.is_nan r.alloc_words_per_op then []
       else [ (Gate.Alloc, r.p_name, r.alloc_words_per_op) ])
      @ Option.to_list (Option.map (fun g -> (Gate.Growth, r.p_name, g)) r.growth))
    rows
  @
  match (rate "fleet-events/jobs4", rate "fleet-events/jobs1") with
  | Some f, Some s -> [ (Gate.Scaling, "fleet-events/jobs4", f /. s) ]
  | _ -> []

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
        let naive = Naive.create discipline in
        let next = ref 0 in
        for step = 1 to 400 do
          if Acfc_sim.Rng.bool rng && !next > 0 then begin
            let head = Acfc_sim.Rng.int rng 128 in
            let a = if Sq.is_empty indexed then None else Some (Sq.pick indexed ~head) in
            let b = Naive.pick naive ~head in
            if a <> b then
              failwith
                (Printf.sprintf
                   "check: disk-queue %s diverged (round %d step %d head %d)" label
                   round step head)
          end
          else begin
            let addr = Acfc_sim.Rng.int rng 128 in
            Sq.add indexed ~addr !next;
            Naive.add naive ~addr !next;
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
    ignore
      (Acfc_scenario.Scenario.run ~obs:(Acfc_replacement.Recorder.sink recorder) scenario);
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
  (* Every stock core against its naive twin (Acfc_oracle.Reference),
     the two run as one pair through Policy_sim.run: the core
     extraction must not move a single victim. *)
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

(* {2 Refinement replay: the columnar cache against its spec}

   The columnar cache (Ctab/Ilist/Itbl under Buf/Acm) and the
   executable spec {!Acfc_oracle.Cache_spec} replay the identical op
   sequence while {!Acfc_oracle.Refine} compares results, event
   streams, stats, the global order, level orders, manager counters,
   the cache's invariants and the spec's [valid]. Three sources: a
   trace recorded from a live workload run (real pids and prefetch
   flags), a wirgen-generated corpus, and seeded storms that also
   exercise the whole control path (managers, priorities, policies,
   temppri, choosers, sync, invalidation) under every allocation
   policy, once with the default config and once with revocation, a
   placeholder budget far below the live count and [Sticky] shared
   files. *)

module Refine = Acfc_oracle.Refine

let refine_report what = function
  | Ok n -> Format.printf "  check refine/%-23s %6d ops, columnar refines the spec@." what n
  | Error d ->
    failwith
      (Format.asprintf "@[<v>check: refine/%s diverged:@,%a@]" what Refine.pp_divergence d)

let refine_recorded () =
  let ops =
    Array.map
      (fun e ->
        Refine.Read
          { pid = e.Acfc_replacement.Refstream.pid; block = e.block; prefetch = e.prefetch })
      (recorded_stream ())
  in
  refine_report "recorded/readn-400" (Refine.run (Config.make ~capacity_blocks:256 ()) ops)

let refine_wirgen () =
  let corpus = stored_corpus Wirgen.default ~seed:3 ~count:16 in
  let trace = combined_trace corpus (List.map (fun p -> Wir.references p) corpus) in
  (* Capacity far below the corpus working set, so the replay churns
     through real evictions, not just cold misses. *)
  refine_report "wirgen-corpus"
    (Refine.run (Config.make ~capacity_blocks:64 ()) (Refine.of_references trace))

(* A deterministic chooser: the smallest resident block, so upcall
   decisions (including bad ones the revocation logic may punish) are
   reproducible. *)
let smallest_chooser ~candidate ~resident =
  match resident with
  | [] -> None
  | l ->
    Some
      (List.fold_left (fun acc b -> if Block.compare b acc < 0 then b else acc) candidate l)

(* The resident set's order decides this chooser's answer: the block
   at a position the candidate picks. A resident list in another order
   names another victim, and the event streams part. *)
let order_chooser ~candidate ~resident =
  match resident with
  | [] -> None
  | l -> Some (List.nth l (Block.index candidate mod List.length l))

let storm_ops ~seed ~ops:n =
  let rng = Acfc_sim.Rng.create seed in
  let ri = Acfc_sim.Rng.int rng in
  Array.init n (fun _ ->
      let r = ri 100 in
      let pid = Acfc_core.Pid.make (1 + ri 4) in
      let file = ri 6 in
      let block = Block.make ~file ~index:(ri 128) in
      if r < 55 then Refine.Read { pid; block; prefetch = ri 8 = 0 }
      else if r < 72 then Refine.Write { pid; block; fetch = ri 2 = 0 }
      else if r < 78 then Refine.Register_manager pid
      else if r < 83 then Refine.Set_priority { pid; file; prio = ri 4 }
      else if r < 86 then
        Refine.Set_policy
          { pid; prio = ri 4; policy = (if ri 2 = 0 then Policy.Lru else Policy.Mru) }
      else if r < 89 then begin
        let first = ri 120 in
        (* [last] occasionally below [first]: the Invalid_range error
           path must agree too. *)
        Refine.Set_temppri { pid; file; first; last = first + ri 40 - 4; prio = ri 4 }
      end
      else if r < 91 then
        Refine.Set_chooser
          {
            pid;
            chooser =
              (match ri 3 with 0 -> None | 1 -> Some smallest_chooser | _ -> Some order_chooser);
          }
      else if r < 95 then Refine.Sync (if ri 2 = 0 then None else Some file)
      else if r < 98 then Refine.Invalidate_file file
      else Refine.Unregister_manager pid)

let alloc_policies =
  [ Config.Global_lru; Config.Alloc_lru; Config.Lru_s; Config.Lru_sp; Config.Clock_sp ]

let check_refine () =
  refine_recorded ();
  refine_wirgen ();
  List.iteri
    (fun i alloc_policy ->
      refine_report
        (Printf.sprintf "storm/%s" (Config.alloc_policy_to_string alloc_policy))
        (Refine.run
           (Config.make ~capacity_blocks:128 ~alloc_policy ())
           (storm_ops ~seed:(41 + i) ~ops:20_000)))
    alloc_policies;
  (* No manager is revoked, no placeholder recycled and no block kept
     by its first manager in the storms above; these reach all three. *)
  List.iteri
    (fun i alloc_policy ->
      refine_report
        (Printf.sprintf "storm-revoke/%s" (Config.alloc_policy_to_string alloc_policy))
        (Refine.run
           (Config.make ~capacity_blocks:128 ~alloc_policy ~max_placeholders:8
              ~shared_files:Config.Sticky
              ~revocation:{ Config.min_decisions = 4; mistake_ratio = 0.05 }
              ())
           (storm_ops ~seed:(46 + i) ~ops:20_000)))
    alloc_policies

(* {2 Fleet determinism replay}

   The fleet engine's replay proof: one fleet run to
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
  check_refine ();
  check_fleet ();
  Format.printf "  check: all implementations agree@."

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
  let trace = combined_trace corpus streams in
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
   committed regret ceilings in bench/gates.txt are exact. Rows land
   in the JSON report's "tournament" section (acfc-bench/1); --gate
   checks them in CI. See docs/PERF.md. *)

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
  combined_trace corpus
    (List.map
       (fun (program, rng) -> Wir.references ~rng program)
       (List.combine corpus (Acfc_scenario.Scenario.workload_rngs scenario)))

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

let tournament_measurements rows =
  List.map
    (fun r -> (Gate.Regret, r.t_family ^ " " ^ r.t_policy, float_of_int r.t_regret))
    rows

(* {2 Machine-readable report (--json)} *)

(* Every artifact of the experiment table; bench's [all] runs them all. *)
let experiment_names = List.map (fun a -> a.Report.name) Report.artifacts

(* The fingerprint of the scenarios behind an artifact row, read from
   the experiment table the run itself executed (fig5-par rows
   fingerprint the fig5 grid they time); null for rows with no grid
   (micro, perf, check). *)
let scenario_hash opts name =
  let base =
    match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let hash names = Some (Acfc_scenario.Scenario.hash_list (Report.scenarios opts names)) in
  if base = "all" then hash experiment_names
  else if List.mem base experiment_names then hash [ base ]
  else None

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
                     ("growth", Option.fold ~none:J.Null ~some:num r.growth);
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
     [store add FILE] on the artifact reproduces the digest). No label:
     a report's identity is its content, and each run's bytes differ. *)
  (match Store.add (store ()) ~kind:Kind.Bench_report contents with
  | Ok outcome ->
    let digest =
      match outcome with
      | Store.Created e | Store.Exists e -> e.Acfc_store.Manifest.digest
    in
    Format.printf "[bench results -> %s (stored as %s)]@." path digest
  | Error e -> failwith ("bench: " ^ e))

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
      (Measure.run ~jobs ~runs:opts.Report.runs (Multi.grid ~sizes:opts.Report.sizes ()))
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
  let gate = ref None in
  let corpus_seed = ref 0 in
  let selected = ref [] in
  let spec =
    [
      ("--quick", Arg.Set quick, "1 run, 2 cache sizes per artifact");
      ( "--store",
        Arg.String (fun d -> store_dir := Some d),
        "DIR persistent content-addressed artifact store (default ACFC_STORE, \
         else an ephemeral per-run store)" );
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
      ( "--gate",
        Arg.String (fun f -> gate := Some f),
        "FILE check the perf and tournament families that ran against this gate \
         file (bench/gates.txt); exits 1 on a violation, 2 when none of its \
         families ran" );
    ]
  in
  (* bench's own families; every other name is an experiment artifact. *)
  let families = [ "all"; "micro"; "perf"; "check"; "wirgen"; "tournament"; "fig5-par" ] in
  let names = families @ experiment_names in
  let usage =
    "main.exe [--quick] [--runs N] [--jobs N] [--json FILE] [--gate FILE] \
     [--corpus-seed N] [--store DIR] ["
    ^ String.concat "|" names ^ "]*"
  in
  Arg.parse spec (fun a -> selected := a :: !selected) usage;
  (* A malformed gate file fails before any family runs. *)
  let gate =
    Option.map
      (fun path ->
        match Gate.load path with
        | Ok rows -> (path, rows)
        | Error e ->
          prerr_endline ("bench: " ^ e);
          exit 2)
      !gate
  in
  let selected = if !selected = [] then [ "all"; "micro" ] else List.rev !selected in
  (* So does an unknown name. *)
  (match List.find_opt (fun name -> not (List.mem name names)) selected with
  | Some name ->
    prerr_endline
      ("bench: unknown family " ^ name ^ " (expected one of " ^ String.concat ", " names ^ ")");
    exit 2
  | None -> ());
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
      | "fig5-par" ->
        (* On the CI runners auto picks the vCPU count; locally the flag
           wins, and a 1-CPU box still exercises the domain machinery. *)
        let par_jobs = if eff_jobs > 1 then eff_jobs else max 2 (Pool.auto_jobs ()) in
        List.iter
          (fun row -> artifact_walls := row :: !artifact_walls)
          (run_fig5_par opts ~jobs:par_jobs)
      | "all" -> Report.run opts Format.std_formatter experiment_names
      | name ->
        (* Every artifact in bench's log opens with a rule, which
           [Report.run] leaves off an ablations or criteria table
           printed alone. *)
        if not (List.exists (fun a -> a.Report.name = name && a.paper) Report.artifacts)
        then Format.printf "@.%s@.@." (String.make 74 '=');
        Report.run opts Format.std_formatter [ name ]);
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
  (* The gate runs last so the JSON artifact is written even on failure. *)
  match gate with
  | None -> ()
  | Some (file, rows) ->
    Format.printf "@.Gate %s:@." file;
    let code =
      Gate.check Format.std_formatter ~file ~cores:(Pool.auto_jobs ())
        ~ran:(List.filter (fun f -> List.mem f selected) [ "perf"; "tournament" ])
        ~measured:(perf_measurements !perf_rows @ tournament_measurements !tournament_rows)
        rows
    in
    if code <> 0 then exit code
