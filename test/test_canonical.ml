(* Canonical bytes, pinned as literals. A format's canonical encoding
   is also its store digest and the input digest perfbench checks, so a
   moved byte must fail here, naming the format, rather than only as a
   stale expected-digest row that fails every benchmark unit at once.
   Never update a literal to make this pass: add the new field as a
   defaulted member instead (see DESIGN.md, "Codecs"). *)

open Tutil
module Scenario = Acfc_scenario.Scenario
module Wir = Acfc_wir.Wir
module Wirgen = Acfc_wirgen.Wirgen
module Manifest = Acfc_store.Manifest
module Kind = Acfc_store.Kind
module Trace = Acfc_obs.Trace
module Json = Acfc_obs.Json
module Config = Acfc_core.Config
module Policy = Acfc_core.Policy

let chk_str = check Alcotest.string

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* Under `dune runtest` the cwd is _build/default/test; under a bare
   `dune exec test/main.exe` it is the project root. *)
let example rel =
  let candidates = [ Filename.concat "../examples" rel; Filename.concat "examples" rel ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.fail ("missing example file " ^ rel)

let scenario_files () =
  List.iter
    (fun (file, digest) ->
      chk_str ("acfc-scenario/1 " ^ file) digest
        (Scenario.hash (ok (Scenario.load (example ("scenarios/" ^ file))))))
    [
      ("adaptive_arc.json", "fb51fb392886bef26bf63e829d8ef8ef");
      ("fig5_cs3_ldk.json", "cda566026651d64a66e828903efb3960");
      ("fleet_small.json", "8d47d70535a880afcf5d93131cda2917");
      ("inline_workload.json", "b50c1a31906655d8668c7ddd2cf15067");
      ("mixed_smart_oblivious.json", "1b6177cd8b7c13b4dea40843aa7f2f8b");
      ("scan_scheduler.json", "60b3ca9616b81e94a7ffad75e41cc962");
    ]

(* Every optional scenario member, and every catalog program inlined as
   acfc-wir/1, so the pins cover each encoder branch. *)
let scenario_members () =
  let drive =
    { Acfc_disk.Params.rz26 with Acfc_disk.Params.name = "custom"; capacity_blocks = 5000 }
  in
  let sink =
    Scenario.make ~seed:42 ~disk_sched:Acfc_disk.Disk.Scan ~update_interval:10.0
      ~hit_cost:0.5 ~io_cpu_cost:1.5 ~write_cluster:8 ~readahead:false
      ~scattered_layout:true
      ~disks:[ { Scenario.params = drive; sched = Acfc_disk.Disk.Fcfs } ]
      ~obs:{ Scenario.trace_path = Some "t.jsonl"; metrics_path = Some "m.json" }
      ~config:
        (Config.make ~alloc_policy:Config.Lru_s ~max_managers:8 ~max_levels:4
           ~max_file_records:16 ~max_placeholders:100
           ~revocation:{ Config.min_decisions = 16; mistake_ratio = 0.25 }
           ~shared_files:Config.Sticky ~capacity_blocks:512 ())
      ~fleet:
        (Scenario.fleet ~shared_files:1 ~lookahead_ms:3.0 ~server_drive:drive
           ~links:
             [
               (2, { Scenario.latency_ms = 4.0; bandwidth_mb_per_s = 10.0 });
               (0, { Scenario.latency_ms = 2.0; bandwidth_mb_per_s = 20.0 });
             ]
           ~clients:3 ~server_cache_blocks:64 ~latency_ms:2.0 ~bandwidth_mb_per_s:20.0 ())
      [
        Scenario.workload ~smart:true ~manager:"arc" "din";
        Scenario.workload ~smart:false ~disk:0 ~file_blocks:700 "read200";
      ]
  in
  chk_str "acfc-scenario/1 every member" "76dbb03ecfa60ae8c334a8b59c3b1c3a"
    (Scenario.hash sink);
  let fig5 = ok (Scenario.load (example "scenarios/fig5_cs3_ldk.json")) in
  let all_apps =
    Scenario.make ~cache_blocks:819
      (List.map Scenario.workload Acfc_scenario.Catalog.app_names
      @ [ Scenario.workload "read300"; Scenario.workload "read300!" ])
  in
  chk_str "acfc-scenario/1 inlined fig5" "a924fc48a6c4e2ef35bc2b4be0bfeb5f"
    (Scenario.hash (Scenario.inline_workloads fig5));
  chk_str "acfc-scenario/1 inlined catalog" "69ff552246fd8cf2bd52e4707a2ae7c6"
    (Scenario.hash (Scenario.inline_workloads all_apps))

let wir_programs () =
  List.iter
    (fun (file, digest) ->
      chk_str ("acfc-wir/1 " ^ file) digest
        (Wir.hash (ok (Wir.load (example ("wirgen/corpus/" ^ file))))))
    [
      ("default-access_once-s3.json", "bc49fedcce0fcbad02898c17349b2ff5");
      ("default-cyclic-s2.json", "59be4421d2be3a0fef90c7e4f1938f81");
      ("default-random-s1.json", "a950225316df1ea7fbb09387eeac0a49");
    ];
  let kitchen =
    Wir.make ~name:"kitchen" ~category:"custom"
      [
        Wir.open_file ~name:"a" ~size_blocks:10 ();
        Wir.open_file ~name:"b" ~size_blocks:0 ~reserve_blocks:4 ();
        Wir.set_priority ~file:0 ~prio:1;
        Wir.set_policy ~prio:0 Policy.Mru;
        Wir.set_temppri ~file:0 ~first:2 ~last:5 ~prio:(-1);
        Wir.loop 3
          [
            Wir.read ~cpu:0.01 ~file:0 ~first:0 ~count:10 ();
            Wir.rand_read ~cpu:0.5 ~file:0 ~base:0 ~range:10 ();
            Wir.choice ~prob:0.5
              [ Wir.write ~done_with:true ~file:1 ~first:0 ~count:4 () ]
              [ Wir.compute 0.002 ];
            Wir.choice ~prob:0.25 [ Wir.compute 0.001 ] [];
          ];
        Wir.seq [ Wir.done_with ~file:0 ~index:3 ];
        Wir.unlink 1;
      ]
  in
  chk_str "acfc-wir/1 every op" "535053b971dc86a1bd1c9b086c879f57" (Wir.hash kitchen)

let wirgen_spec () =
  chk_str "acfc-wirgen/1 default.json" "a36a26cca59ab3c1664a307f8191e675"
    (Wirgen.hash (ok (Wirgen.load (example "wirgen/default.json"))));
  chk_str "acfc-wirgen/1 zero weights dropped" "bd3e2e14d9891756711329041c4c34f5"
    (Wirgen.hash
       {
         Wirgen.default with
         Wirgen.mix = [ (Wirgen.Random, 2.0); (Wirgen.Cyclic, 0.0); (Wirgen.Sequential, 0.5) ];
       })

let manifest () =
  let m = Manifest.empty in
  let m, _ =
    ok
      (Manifest.add m ~kind:Kind.Scenario ~digest:(String.make 32 'a') ~bytes:412
         ~label:(Some "scenario:x"))
  in
  let m, _ =
    ok (Manifest.add m ~kind:Kind.Wirgen_corpus ~digest:(String.make 32 'b') ~bytes:0 ~label:None)
  in
  chk_str "acfc-store/1 manifest"
    {|{"schema":"acfc-store/1","next_seq":2,"entries":[{"seq":0,"kind":"scenario","digest":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa","bytes":412,"label":"scenario:x"},{"seq":1,"kind":"wirgen-corpus","digest":"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb","bytes":0}]}|}
    (Manifest.to_string m)

let trace_lines () =
  let b file index = { Trace.file; index } in
  List.iter
    (fun (ev, line) ->
      chk_str ("trace JSONL " ^ Trace.kind ev) line
        (Json.to_string (Trace.to_json { Trace.time = 1.25; ev })))
    [
      ( Trace.Cache_hit { pid = 1; block = b 2 3 },
        {|{"t":1.25,"ev":"cache_hit","pid":1,"file":2,"index":3}|} );
      ( Trace.Cache_miss { pid = 0; block = b 1 9; prefetch = true },
        {|{"t":1.25,"ev":"cache_miss","pid":0,"file":1,"index":9,"prefetch":true}|} );
      ( Trace.Evict
          { victim = b 1 2; owner = 3; candidate = b 4 5; policy = "lru-sp"; reason = "capacity" },
        {|{"t":1.25,"ev":"evict","victim_file":1,"victim_index":2,"owner":3,"cand_file":4,"cand_index":5,"policy":"lru-sp","reason":"capacity"}|}
      );
      (Trace.Writeback { block = b 4 4 }, {|{"t":1.25,"ev":"writeback","file":4,"index":4}|});
      ( Trace.Swap { kept = b 1 2; victim = b 3 4 },
        {|{"t":1.25,"ev":"swap","kept_file":1,"kept_index":2,"victim_file":3,"victim_index":4}|}
      );
      ( Trace.Placeholder_created { replaced = b 1 1; target = b 2 2; chooser = 1 },
        {|{"t":1.25,"ev":"placeholder_created","replaced_file":1,"replaced_index":1,"target_file":2,"target_index":2,"chooser":1}|}
      );
      ( Trace.Placeholder_hit { missing = b 1 1; target = b 2 2; chooser = 1 },
        {|{"t":1.25,"ev":"placeholder_hit","missing_file":1,"missing_index":1,"target_file":2,"target_index":2,"chooser":1}|}
      );
      (Trace.Manager_revoked { pid = 3 }, {|{"t":1.25,"ev":"manager_revoked","pid":3}|});
      ( Trace.Disk_io
          {
            disk = "rz56";
            kind = "read";
            addr = 1024;
            blocks = 8;
            seek = 0.0165;
            rot = 0.0083;
            xfer = 0.004;
            wait = 0.5;
          },
        {|{"t":1.25,"ev":"disk_io","disk":"rz56","kind":"read","addr":1024,"blocks":8,"seek":0.0165,"rot":0.0083,"xfer":0.004,"wait":0.5}|}
      );
      ( Trace.Syscall { pid = 0; op = "read"; detail = "file=3 off=0 len=8192" },
        {|{"t":1.25,"ev":"syscall","pid":0,"op":"read","detail":"file=3 off=0 len=8192"}|} );
      ( Trace.Fiber { name = "read100"; op = "spawn" },
        {|{"t":1.25,"ev":"fiber","name":"read100","op":"spawn"}|} );
    ]

let suites =
  [
    ( "canonical bytes",
      [
        case "scenario example digests" scenario_files;
        case "scenario member digests" scenario_members;
        case "wir program digests" wir_programs;
        case "wirgen spec digests" wirgen_spec;
        case "store manifest bytes" manifest;
        case "trace JSONL lines" trace_lines;
      ] );
  ]
