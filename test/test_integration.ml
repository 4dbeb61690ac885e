(* End-to-end regression locks: the headline reproduction numbers are
   deterministic given the seed, so they are pinned exactly. If a change
   moves one of these, EXPERIMENTS.md needs regenerating. *)

open Acfc_workload
module Config = Acfc_core.Config
module Cache = Acfc_core.Cache
module Engine = Acfc_sim.Engine
module Ivar = Acfc_sim.Ivar
module Disk = Acfc_disk.Disk
module Params = Acfc_disk.Params
module Fs = Acfc_fs.Fs
open Tutil

let run_one ?(policy = Config.Lru_sp) ?(smart = true) ?(cache_mb = 6.4) ?(disk = 0) app
    =
  let r =
    Acfc_scenario.Scenario.run_specs ~seed:0
      ~cache_blocks:(Runner.blocks_of_mb cache_mb)
      ~alloc_policy:policy
      [ Runner.Spec.make ~smart ~disk app ]
  in
  List.hd r.Runner.apps

let din_headline () =
  let orig = run_one ~policy:Config.Global_lru ~smart:false Dinero.din in
  let sp = run_one Dinero.din in
  chk_int "original I/Os" 9216 orig.Runner.block_ios;
  chk_int "LRU-SP I/Os" 2664 sp.Runner.block_ios;
  (* Elapsed within a second of the paper's 117 s / 106 s. *)
  chk_bool "original elapsed ~117s" true (Float.abs (orig.Runner.elapsed -. 117.2) < 1.0);
  chk_bool "LRU-SP elapsed ~104s" true (Float.abs (sp.Runner.elapsed -. 104.0) < 1.0)

let cs1_headline () =
  let orig = run_one ~policy:Config.Global_lru ~smart:false Cscope.cs1 in
  let sp = run_one Cscope.cs1 in
  chk_int "original I/Os" 9128 orig.Runner.block_ios;
  chk_int "LRU-SP I/Os" 3395 sp.Runner.block_ios

let din_at_8mb_converges () =
  (* Once the trace fits, both kernels see compulsory misses only. *)
  let orig = run_one ~policy:Config.Global_lru ~smart:false ~cache_mb:8.0 Dinero.din in
  let sp = run_one ~cache_mb:8.0 Dinero.din in
  chk_int "original compulsory" 1024 orig.Runner.block_ios;
  chk_int "LRU-SP compulsory" 1024 sp.Runner.block_ios

let clock_sp_same_headline () =
  let sp = run_one ~policy:Config.Clock_sp Dinero.din in
  chk_int "Clock-SP matches LRU-SP" 2664 sp.Runner.block_ios

(* {2 Concurrency mechanics through the full stack} *)

let bb = Params.block_bytes

let concurrent_misses_coalesce () =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let fs = Fs.create engine ~config:(config 16) ~readahead:false () in
      let file = Fs.create_file fs ~name:"shared" ~disk ~size_bytes:(4 * bb) () in
      let done1 = Ivar.create engine and done2 = Ivar.create engine in
      (* Two processes demand the same uncached block at the same time:
         one disk read must serve both. *)
      Engine.spawn engine (fun () ->
          Fs.read fs ~pid:(pid 1) file ~off:0 ~len:bb;
          Ivar.fill done1 (Engine.now engine));
      Engine.spawn engine (fun () ->
          Fs.read fs ~pid:(pid 2) file ~off:0 ~len:bb;
          Ivar.fill done2 (Engine.now engine));
      let t1 = Ivar.read done1 and t2 = Ivar.read done2 in
      chk_int "one disk read total" 1
        (Fs.pid_disk_reads fs (pid 1) + Fs.pid_disk_reads fs (pid 2));
      (* The coalesced waiter finishes with (not before) the I/O; only
         per-block CPU charges (~2.6 ms) separate the two completions,
         far below the ~14 ms the disk service costs. *)
      chk_bool "both waited for the same I/O" true (Float.abs (t1 -. t2) < 0.005))

let inflight_block_never_evicted () =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      (* Cache of 2: process B floods it while process A's read of block
         0 is still on the (slow, queued) disk. The in-flight block must
         survive until A consumes it: exactly one read of block 0. *)
      let fs = Fs.create engine ~config:(config 2) ~readahead:false () in
      let file = Fs.create_file fs ~name:"f" ~disk ~size_bytes:(16 * bb) () in
      Engine.spawn engine (fun () -> Fs.read fs ~pid:(pid 1) file ~off:0 ~len:bb);
      Engine.spawn engine (fun () ->
          for i = 1 to 15 do
            Fs.read fs ~pid:(pid 2) file ~off:(i * bb) ~len:1
          done);
      Engine.run engine;
      chk_int "block 0 read exactly once" 1 (Fs.pid_disk_reads fs (pid 1));
      Cache.check_invariants (Fs.cache fs))

let cache_busy_when_everything_pinned () =
  (* A 1-block cache with a backend whose read re-enters the cache: the
     only frame is pinned by the outer miss, so the inner miss cannot
     find a victim. *)
  let cache = ref None in
  let inner_result = ref `Unset in
  let backend =
    {
      Acfc_core.Backend.read_block =
        (fun key ->
          if Acfc_core.Block.packed_index key = 0 then (
            match Cache.read (Option.get !cache) ~pid:(pid 0) (blk 1) with
            | _ -> inner_result := `Returned
            | exception Cache.Cache_busy -> inner_result := `Busy);
          true);
      write_block = ignore;
      evicted = ignore;
    }
  in
  let c = Cache.create ~backend (config 1) in
  cache := Some c;
  ignore (Cache.read c ~pid:(pid 0) (blk 0));
  chk_bool "inner miss hit Cache_busy" true (!inner_result = `Busy)

let mix_with_recorder () =
  (* A recorder's sink observes full concurrent runs. *)
  let recorder = Acfc_replacement.Recorder.create () in
  let r =
    Acfc_scenario.Scenario.run_specs ~seed:0 ~cache_blocks:819 ~alloc_policy:Config.Lru_sp
      ~obs:(Acfc_replacement.Recorder.sink recorder)
      [
        Runner.Spec.make ~smart:true ~disk:0 Dinero.din;
        Runner.Spec.make ~smart:false ~disk:0 (Readn.app ~n:300 ~mode:`Oblivious ());
      ]
  in
  let stream = Acfc_replacement.Recorder.stream recorder in
  let din_trace = Acfc_replacement.Refstream.demand ~pid:(pid 0) stream in
  chk_int "din's demand references" 9216 (Array.length din_trace);
  let readn_trace = Acfc_replacement.Refstream.demand ~pid:(pid 1) stream in
  chk_int "readn's demand references" 6000 (Array.length readn_trace);
  chk_bool "run completed" true (r.Runner.makespan > 0.0)

let pp_smoke () =
  (* Printers over live values must not raise. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a %a %a %a" Acfc_core.Block.pp (blk 3) Acfc_core.Pid.pp (pid 1)
    Acfc_core.Policy.pp Acfc_core.Policy.Mru Params.pp Params.rz56;
  let block = { Acfc_obs.Trace.file = 0; index = 0 } in
  List.iter
    (fun ev -> Format.fprintf ppf "%a" Acfc_obs.Trace.pp { Acfc_obs.Trace.time = 0.0; ev })
    [
      Acfc_obs.Trace.Cache_hit { pid = 0; block };
      Acfc_obs.Trace.Cache_miss { pid = 0; block; prefetch = true };
      Acfc_obs.Trace.Writeback { block };
      Acfc_obs.Trace.Manager_revoked { pid = 3 };
    ];
  Format.pp_print_flush ppf ();
  chk_bool "printers produce text" true (Buffer.length buf > 0)

let suites =
  [
    ( "integration",
      [
        case "din headline numbers" din_headline;
        case "cs1 headline numbers" cs1_headline;
        case "din converges at 8MB" din_at_8mb_converges;
        case "Clock-SP same headline" clock_sp_same_headline;
        case "concurrent misses coalesce" concurrent_misses_coalesce;
        case "in-flight block never evicted" inflight_block_never_evicted;
        case "Cache_busy when all pinned" cache_busy_when_everything_pinned;
        case "recorder composes with mixes" mix_with_recorder;
        case "printer smoke" pp_smoke;
      ] );
  ]
