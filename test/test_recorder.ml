open Acfc_core
open Acfc_replacement
open Tutil

let p0 = pid 0

let p1 = pid 1

let record_run () =
  let recorder = Recorder.create () in
  let c = Cache.create (config 4) in
  Cache.set_obs c (Some (Recorder.sink recorder));
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p1 (blk 1));
  recorder

let records_hits_and_misses () =
  let r = record_run () in
  chk_int "three references" 3 (Recorder.length r);
  let e = Recorder.stream r in
  chk_bool "miss then hit then miss" true
    ((not e.(0).Refstream.hit) && e.(1).Refstream.hit && not e.(2).Refstream.hit);
  chk_bool "pids recorded" true
    (Pid.equal e.(0).Refstream.pid p0 && Pid.equal e.(2).Refstream.pid p1)

(* [observe] keeps the hit and miss records, with their prefetch flag,
   and ignores every other record of the machine's trace. *)
let observe_keeps_only_references () =
  let open Acfc_obs in
  let r = Recorder.create () in
  let b index = { Trace.file = 2; index } in
  List.iter
    (fun ev -> Recorder.observe r { Trace.time = 0.; ev })
    [
      Trace.Syscall { pid = 1; op = "read"; detail = "file=2 off=0 len=8192" };
      Trace.Cache_miss { pid = 1; block = b 0; prefetch = false };
      Trace.Evict
        { victim = b 5; owner = 1; candidate = b 5; policy = "LRU-SP"; reason = "capacity" };
      Trace.Swap { kept = b 1; victim = b 2 };
      Trace.Placeholder_created { replaced = b 2; target = b 1; chooser = 1 };
      Trace.Placeholder_hit { missing = b 2; target = b 1; chooser = 1 };
      Trace.Manager_revoked { pid = 1 };
      Trace.Writeback { block = b 3 };
      Trace.Disk_io
        {
          disk = "rz56";
          kind = "read";
          addr = 0;
          blocks = 1;
          seek = 0.;
          rot = 0.;
          xfer = 0.;
          wait = 0.;
        };
      Trace.Fiber { name = "app"; op = "spawn" };
      Trace.Cache_miss { pid = 0; block = b 1; prefetch = true };
      Trace.Cache_hit { pid = 1; block = b 0 };
    ];
  chk_int "hits and misses only" 3 (Recorder.length r);
  let entry pid index ~hit ~prefetch =
    { Refstream.pid; block = blk ~file:2 index; hit; prefetch }
  in
  chk_bool "entries in order" true
    (Recorder.stream r
    = [|
        entry p1 0 ~hit:false ~prefetch:false;
        entry p0 1 ~hit:false ~prefetch:true;
        entry p1 0 ~hit:true ~prefetch:false;
      |])

let demand_filters () =
  let s = Recorder.stream (record_run ()) in
  chk_int "all refs" 3 (Array.length (Refstream.demand s));
  chk_int "p1 only" 1 (Array.length (Refstream.demand ~pid:p1 s));
  chk_bool "trace content" true (Refstream.demand ~pid:p1 s = [| blk 1 |])

let save_load_roundtrip () =
  let s = Recorder.stream (record_run ()) in
  let path = Filename.temp_file "acfc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Refstream.save s oc;
      close_out oc;
      let ic = open_in path in
      let s' = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Refstream.load ic) in
      chk_int "same length" (Array.length s) (Array.length s');
      chk_bool "same entries" true (s = s'))

let load_rejects_garbage () =
  let path = Filename.temp_file "acfc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Refstream.load ic with
          | _ -> Alcotest.fail "garbage accepted"
          | exception Failure _ -> ()))

(* Record a live din-like cyclic run under LRU-SP with the MRU strategy,
   then replay the demand trace: the live policy must equal OPT — the
   companion paper's principle that application policies approximate the
   optimal replacement, verified mechanically. *)
let live_mru_equals_opt_on_own_trace () =
  let recorder = Recorder.create () in
  let c = Cache.create (config 50) in
  Cache.set_obs c (Some (Recorder.sink recorder));
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  for _pass = 1 to 5 do
    for i = 0 to 69 do
      ignore (Cache.read c ~pid:p0 (blk i))
    done
  done;
  let live_misses = Cache.misses c in
  let trace = Refstream.demand (Recorder.stream recorder) in
  let opt = Policy_sim.run (module Acfc_policy.Cores.Opt) ~capacity:50 trace in
  chk_int "live MRU = OPT" opt.Policy_sim.misses live_misses

let prefetch_excluded_by_default () =
  (* Through the file system, read-ahead misses carry the prefetch flag
     and stay out of the demand trace. *)
  Tutil.in_sim (fun engine ->
      let disk = Acfc_disk.Disk.create engine Acfc_disk.Params.rz56 in
      let fs = Acfc_fs.Fs.create engine ~config:(config 64) () in
      let recorder = Recorder.create () in
      Cache.set_obs (Acfc_fs.Fs.cache fs) (Some (Recorder.sink recorder));
      let file =
        Acfc_fs.Fs.create_file fs ~name:"f" ~disk ~size_bytes:(16 * 8192) ()
      in
      Acfc_fs.Fs.read fs ~pid:p0 file ~off:0 ~len:(16 * 8192);
      let stream = Recorder.stream recorder in
      let demand = Refstream.demand stream in
      let all = Refstream.demand ~include_prefetch:true stream in
      chk_int "demand = app references" 16 (Array.length demand);
      chk_bool "prefetches recorded but flagged" true (Array.length all > 16))

let suites =
  [
    ( "trace recorder",
      [
        case "records hits and misses" records_hits_and_misses;
        case "observe keeps only references" observe_keeps_only_references;
        case "demand trace filters by pid" demand_filters;
        case "save/load round-trip" save_load_roundtrip;
        case "rejects garbage" load_rejects_garbage;
        case "live MRU equals OPT on its own trace" live_mru_equals_opt_on_own_trace;
        case "prefetch excluded by default" prefetch_excluded_by_default;
      ] );
  ]
