(* The scenario layer: JSON round-trips, catalog resolution, and the
   precise error messages promised by the .mli. *)

open Acfc_scenario
module Config = Acfc_core.Config
module Runner = Acfc_workload.Runner
module Disk = Acfc_disk.Disk
open Tutil

let chk_str = check Alcotest.string

let report r = Format.asprintf "%a" Runner.pp r

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected scenario error: " ^ e)

let expect_error msg = function
  | Ok _ -> Alcotest.fail ("parse succeeded; expected: " ^ msg)
  | Error e -> chk_str "error message" msg e

(* A scenario exercising every optional field, so the round-trip test
   covers the whole encoder. *)
let kitchen_sink =
  Scenario.make ~seed:42 ~disk_sched:Disk.Scan ~update_interval:10.0 ~hit_cost:0.5
    ~io_cpu_cost:1.5 ~write_cluster:8 ~readahead:false ~scattered_layout:true
    ~revocation:{ Config.min_decisions = 16; mistake_ratio = 0.25 }
    ~shared_files:Config.Sticky
    ~obs:{ Scenario.trace_path = Some "t.jsonl"; metrics_path = Some "m.json" }
    ~cache_blocks:512 ~alloc_policy:Config.Lru_s
    [
      Scenario.workload ~smart:true "din";
      Scenario.workload ~smart:false ~disk:1 ~file_blocks:700 "read200";
    ]

let roundtrip_json () =
  List.iter
    (fun s ->
      let s' = ok (Scenario.of_json (Scenario.to_json s)) in
      chk_str "of_json (to_json s) = s" (Scenario.to_string s) (Scenario.to_string s');
      chk_str "hash stable" (Scenario.hash s) (Scenario.hash s'))
    [
      kitchen_sink;
      Scenario.make ~cache_blocks:819 ~alloc_policy:Config.Global_lru
        [ Scenario.workload "cs3" ];
    ]

(* The experiment table: each name once, the names [report --list]
   prints; every artifact's quick grid survives save/load; and bench's
   [all] fingerprint hashes each grid once, in table order, though
   fig4, table5 and table6 share one. *)
let roundtrip_experiment_grids () =
  let module Report = Acfc_experiments.Report in
  let names = List.map (fun a -> a.Report.name) Report.artifacts in
  chk_int "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  check Alcotest.(list string) "the report --list names" Test_listings.experiment_names
    (List.sort String.compare names);
  let grid name = Report.scenarios Report.quick [ name ] in
  List.iter
    (fun name ->
      List.iter
        (fun s ->
          let s' = ok (Scenario.of_string (Scenario.to_string s)) in
          chk_str (name ^ " scenario round-trips") (Scenario.to_string s)
            (Scenario.to_string s'))
        (grid name))
    names;
  let distinct =
    List.fold_left
      (fun seen name ->
        let h = Scenario.hash_list (grid name) in
        if List.mem_assoc h seen then seen else seen @ [ (h, grid name) ])
      [] names
  in
  chk_int "nine grids" 9 (List.length distinct);
  chk_str "all hashes each grid once"
    (Scenario.hash_list (List.concat_map snd distinct))
    (Scenario.hash_list (Report.scenarios Report.quick names))

let save_load_run () =
  (* The grid's last scenario at 4 runs: cs3+ldk under LRU-SP, seed 3. *)
  let s =
    List.hd
      (List.rev
         (Acfc_experiments.Measure.scenarios ~runs:4
            (Acfc_experiments.Multi.grid ~sizes:[ 6.4 ] ~combos:[ [ "cs3"; "ldk" ] ] ())))
  in
  let file = Filename.temp_file "acfc_scenario" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Scenario.save s file;
      let s' = ok (Scenario.load file) in
      chk_str "saved scenario reruns identically" (report (Scenario.run s))
        (report (Scenario.run s')))

let load_missing () =
  match Scenario.load "/nonexistent/acfc.json" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error e -> chk_bool "mentions the file" true (contains_sub ~sub:"/nonexistent/acfc.json" e)

let minimal = {|{"schema":"acfc-scenario/1","cache":{"capacity_blocks":819},"workloads":[{"app":"din"}]}|}

let defaults_fill_in () =
  let s = ok (Scenario.of_string minimal) in
  let r = Scenario.run s in
  chk_int "din runs with catalog defaults" 1
    (List.length r.Runner.apps);
  (* Paper apps default to smart; din under lru-sp avoids the thrash. *)
  chk_bool "smart default applied" true
    ((List.hd r.Runner.apps).Runner.block_ios < 9216)

(* Substring replace, to derive each malformed input from [minimal]. *)
let replace ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then (
      Buffer.add_string b by;
      i := !i + n)
    else (
      Buffer.add_char b s.[!i];
      incr i)
  done;
  Buffer.add_string b (String.sub s !i (String.length s - !i));
  Buffer.contents b

(* [minimal] with one more top-level member. *)
let with_member m = replace ~sub:{|"workloads"|} ~by:(m ^ {|,"workloads"|}) minimal

(* [minimal] on one explicit RZ26-like drive with one field replaced. *)
let with_drive ~field ~by =
  let drive =
    {|{"name":"x","capacity_blocks":5000,"min_seek_ms":1,"avg_seek_ms":10.5,"max_seek_ms":20,"avg_rot_ms":5.54,"transfer_mb_per_s":3.3,"overhead_ms":1,"seq_rot_factor":0.5}|}
  in
  with_member (Printf.sprintf {|"disks":[{"drive":%s}]|} (replace ~sub:field ~by drive))

(* An inline workload opening the three files of
   examples/scenarios/inline_workload.json, the first of [table]
   blocks. *)
let three_files table =
  Printf.sprintf
    {|{"program":{"schema":"acfc-wir/1","name":"t","ops":[{"op":"open","name":"table.dat","size_blocks":%d},{"op":"open","name":"index.dat","size_blocks":64},{"op":"open","name":"out.dat","size_blocks":0,"reserve_blocks":128}]}}|}
    table

(* A two-client fleet section for [minimal]: din's one file is shared. *)
let small_fleet =
  {|"fleet":{"clients":2,"shared_files":1,"server":{"cache_blocks":64,"drive":"rz56"},"network":{"latency_ms":2,"bandwidth_mb_per_s":20}}|}

(* A fleet whose one workload opens a 2^33-block file and reads near
   block 2^32. *)
let big_fleet =
  {|{"schema":"acfc-scenario/1","cache":{"capacity_blocks":64},"disks":[{"drive":"rz56"}],"workloads":[{"program":{"schema":"acfc-wir/1","name":"big","ops":[{"op":"open","name":"big.dat","size_blocks":8589934592},{"op":"loop","times":20,"body":[{"op":"rand_read","file":0,"base":4294967290,"range":10}]}]}}],|}
  ^ small_fleet ^ "}"

let errors () =
  List.iter
    (fun (json, msg) -> expect_error msg (Scenario.of_string json))
    [
      ( replace ~sub:{|"capacity_blocks"|} ~by:{|"capacity_blks"|} minimal,
        {|scenario: unknown field "capacity_blks" at $.cache|} );
      ( replace ~sub:{|"capacity_blocks":819|}
          ~by:{|"capacity_blocks":819,"alloc_policy":"lru-xp"|} minimal,
        "scenario: unknown allocation policy \"lru-xp\" (expected global-lru, \
         alloc-lru, lru-s, lru-sp or clock-sp) at $.cache.alloc_policy" );
      ( with_member
          {|"fleet":{"clients":2,"shared_files":2,"server":{"cache_blocks":64,"drive":"rz56"},"network":{"latency_ms":2,"bandwidth_mb_per_s":20}}|},
        "scenario: shared_files 2 exceeds the 1 workload file slots at $.fleet.shared_files" );
      ( replace ~sub:{|{"app":"din"}|} ~by:{|{"app":"din","disk":5}|} minimal,
        "scenario: disk index 5 out of range (2 disks) at $.workloads[0].disk" );
      ( replace ~sub:{|{"app":"din"}|} ~by:{|{"app":"dinx"}|} minimal,
        "scenario: unknown application \"dinx\" (expected one of din, cs1, cs3, \
         cs2, gli, ldk, pjn, sort, or readN / readN!) at $.workloads[0].app" );
      ( replace ~sub:"acfc-scenario/1" ~by:"acfc-scenario/9" minimal,
        "scenario: unsupported schema \"acfc-scenario/9\" (expected \
         acfc-scenario/1) at $.schema" );
      ( replace ~sub:{|"workloads":[{"app":"din"}]|} ~by:{|"workloads":[]|} minimal,
        "scenario: workloads must be non-empty at $.workloads" );
      ( replace ~sub:{|"workloads":[{"app":"din"}]|}
          ~by:{|"disks":[{"drive":"rz99"}],"workloads":[{"app":"din"}]|} minimal,
        "scenario: unknown drive \"rz99\" (expected rz56, rz26 or a parameter \
         object) at $.disks[0].drive" );
      ( replace ~sub:{|{"app":"din"}|} ~by:{|{"app":"din","file_blocks":64}|} minimal,
        "scenario: application \"din\" does not take file_blocks (readN only) at \
         $.workloads[0].app" );
      ( replace ~sub:{|{"app":"din"}|} ~by:{|{"app":"read100","file_blocks":-5}|} minimal,
        "scenario: file_blocks must be >= 1 at $.workloads[0].file_blocks" );
      ( replace ~sub:{|{"app":"din"}|} ~by:{|{"app":"read100","file_blocks":0}|} minimal,
        "scenario: file_blocks must be >= 1 at $.workloads[0].file_blocks" );
      (* examples/scenarios/inline_workload.json with its random reads
         pointed at the reserved but unwritten output file. *)
      ( replace ~sub:{|{"app":"din"}|}
          ~by:
            {|{"program":{"schema":"acfc-wir/1","name":"t","ops":[{"op":"open","name":"out.dat","size_blocks":0,"reserve_blocks":128},{"op":"loop","times":2000,"body":[{"op":"rand_read","file":0,"base":0,"range":64}]}]}}|}
          minimal,
        "scenario: read of blocks [0, 64) is past the end of file 0 (0 blocks written \
         here) at $.workloads[0].program.ops[1].body[0]" );
      (* examples/scenarios/inline_workload.json with table.dat grown
         to 85,000 blocks: it fits the RZ56's 85,120 alone, but the
         other two files overflow the disk. *)
      ( replace ~sub:{|{"app":"din"}|} ~by:(three_files 85_000) minimal,
        "scenario: the files opened on disk 0 need 85192 blocks, more than its 85120 at \
         $.workloads[0]" );
      (* The largest extent a file can have. *)
      ( replace ~sub:{|{"app":"din"}|} ~by:(three_files (1 lsl 32)) minimal,
        "scenario: the files opened on disk 0 need 4294967488 blocks, more than its \
         85120 at $.workloads[0]" );
      (* A fleet skips the disk-space sum, so the program check must
         refuse an extent whose block indices Block.pack cannot hold. *)
      ( big_fleet,
        "scenario: extent of 8589934592 blocks exceeds the 2^32 blocks a file can hold \
         at $.workloads[0].program.ops[0]" );
      (* A run lasts at least its CPU time, and the update daemon wakes
         every 30 simulated seconds of it. *)
      ( replace ~sub:{|{"app":"din"}|}
          ~by:
            {|{"program":{"schema":"acfc-wir/1","name":"t","ops":[{"op":"compute","seconds":1e12}]}}|}
          minimal,
        "scenario: CPU time adds up to 1e+12 s by this op (loops multiplied out), past \
         the 1e+06 s a program may charge at $.workloads[0].program.ops[0]" );
      ( replace ~sub:{|{"app":"din"}|}
          ~by:
            {|{"program":{"schema":"acfc-wir/1","name":"t","ops":[{"op":"compute","seconds":1},{"op":"loop","times":2000,"body":[{"op":"loop","times":1000000,"body":[{"op":"compute","seconds":0.001}]}]}]}}|}
          minimal,
        "scenario: CPU time adds up to 2e+06 s by this op (loops multiplied out), past \
         the 1e+06 s a program may charge at $.workloads[0].program.ops[1]" );
      (* Caches pre-size their tables: none may outgrow its drives. *)
      ( replace ~sub:{|"capacity_blocks":819|} ~by:{|"capacity_blocks":2147483648|} minimal,
        "scenario: capacity_blocks 2147483648 exceeds the 219520 blocks of the \
         scenario's drives at $.cache.capacity_blocks" );
      ( replace ~sub:{|"capacity_blocks":819|} ~by:{|"capacity_blocks":2147483648|}
          (with_member small_fleet),
        "scenario: capacity_blocks 2147483648 exceeds the 304640 blocks of the \
         scenario's drives and the server drive at $.cache.capacity_blocks" );
      ( with_member
          (replace ~sub:{|"cache_blocks":64|} ~by:{|"cache_blocks":1099511627776|}
             small_fleet),
        "scenario: cache_blocks 1099511627776 exceeds the server drive's 85120 blocks at \
         $.fleet.server.cache_blocks" );
      (* 84,900 blocks fit packed, not after three gaps of up to 850. *)
      ( replace ~sub:{|"workloads"|} ~by:{|"fs":{"scattered_layout":true},"workloads"|}
          (replace ~sub:{|{"app":"din"}|} ~by:(three_files 84_900) minimal),
        "scenario: the files opened on disk 0 need 87642 blocks with worst-case \
         scattered gaps, more than its 85120 at $.workloads[0]" );
      (* Catalog programs count too: din's trace file takes 1,024. *)
      ( replace ~sub:{|{"app":"din"}|} ~by:{|{"app":"din"},{"app":"read100","file_blocks":4000}|}
          (with_drive ~field:{|"capacity_blocks":5000|} ~by:{|"capacity_blocks":5000|}),
        "scenario: the files opened on disk 0 need 5024 blocks, more than its 5000 at \
         $.workloads[1]" );
      ( replace ~sub:{|"workloads"|} ~by:{|"fs":{"scattered_layout":true},"workloads"|}
          (with_drive ~field:{|"capacity_blocks":5000|} ~by:{|"capacity_blocks":99|}),
        "scenario: scattered_layout needs at least 100 blocks on disk 0, which holds 99 \
         at $.workloads[0]" );
      ( replace ~sub:{|"cache"|} ~by:{|"seed":1,"seed":2,"cache"|} minimal,
        {|scenario: duplicate field "seed" at $|} );
      ( replace ~sub:{|"cache"|} ~by:{|"seed":1e300,"cache"|} minimal,
        "scenario: expected an integer at $.seed" );
      ( replace ~sub:{|"cache"|} ~by:{|"seed":4611686018427387904,"cache"|} minimal,
        "scenario: expected an integer at $.seed" );
      ( with_member {|"fs":{"update_interval_s":0}|},
        "scenario: update_interval_s must be finite and >= 0.01 at $.fs.update_interval_s" );
      ( with_member {|"fs":{"update_interval_s":-5}|},
        "scenario: update_interval_s must be finite and >= 0.01 at $.fs.update_interval_s" );
      (* One sync per tick: at 1e-300 s the run never finished. *)
      ( with_member {|"fs":{"update_interval_s":1e-300}|},
        "scenario: update_interval_s must be finite and >= 0.01 at $.fs.update_interval_s" );
      ( with_member {|"fs":{"update_interval_s":0.001}|},
        "scenario: update_interval_s must be finite and >= 0.01 at $.fs.update_interval_s" );
      ( with_member {|"fs":{"write_cluster":0}|},
        "scenario: write_cluster must be >= 1 at $.fs.write_cluster" );
      ( with_member {|"cpu":{"hit_cost":-1}|},
        "scenario: hit_cost must be finite and >= 0 at $.cpu.hit_cost" );
      ( with_member {|"cpu":{"io_cpu_cost":-0.5}|},
        "scenario: io_cpu_cost must be finite and >= 0 at $.cpu.io_cpu_cost" );
      ( with_drive ~field:{|"capacity_blocks":5000|} ~by:{|"capacity_blocks":-3|},
        "scenario: capacity_blocks must be >= 1 at $.disks[0].drive.capacity_blocks" );
      ( with_drive ~field:{|"transfer_mb_per_s":3.3|} ~by:{|"transfer_mb_per_s":0|},
        "scenario: transfer_mb_per_s must be finite and > 0 at \
         $.disks[0].drive.transfer_mb_per_s" );
      ( with_drive ~field:{|"avg_seek_ms":10.5|} ~by:{|"avg_seek_ms":-1|},
        "scenario: avg_seek_ms must be finite and >= 0 at $.disks[0].drive.avg_seek_ms" );
      ( with_drive ~field:{|"min_seek_ms":1|} ~by:{|"min_seek_ms":-2|},
        "scenario: min_seek_ms must be finite and >= 0 at $.disks[0].drive.min_seek_ms" );
      ( with_drive ~field:{|"max_seek_ms":20|} ~by:{|"max_seek_ms":-2|},
        "scenario: max_seek_ms must be finite and >= 0 at $.disks[0].drive.max_seek_ms" );
      ( with_drive ~field:{|"avg_rot_ms":5.54|} ~by:{|"avg_rot_ms":-2|},
        "scenario: avg_rot_ms must be finite and >= 0 at $.disks[0].drive.avg_rot_ms" );
      ( with_drive ~field:{|"overhead_ms":1|} ~by:{|"overhead_ms":-2|},
        "scenario: overhead_ms must be finite and >= 0 at $.disks[0].drive.overhead_ms" );
      ( with_drive ~field:{|"seq_rot_factor":0.5|} ~by:{|"seq_rot_factor":-2|},
        "scenario: seq_rot_factor must be finite and >= 0 at \
         $.disks[0].drive.seq_rot_factor" );
      ( with_member {|"disks":[{"drive":"rz56","sched":"elevator"}]|},
        "scenario: unknown disk scheduler \"elevator\" (expected fcfs or scan) at \
         $.disks[0].sched" );
    ];
  (* The cache bounds are inclusive. *)
  List.iter
    (fun json -> ignore (ok (Scenario.of_string json)))
    [
      replace ~sub:{|"capacity_blocks":819|} ~by:{|"capacity_blocks":219520|} minimal;
      with_member
        (replace ~sub:{|"cache_blocks":64|} ~by:{|"cache_blocks":85120|} small_fleet);
    ]

(* The machine-number ranges are shared with the constructors. *)
let constructor_ranges () =
  Alcotest.check_raises "make refuses a zero update interval"
    (Invalid_argument
       "Scenario.make: update_interval_s must be finite and >= 0.01 at $.fs.update_interval_s")
    (fun () ->
      ignore
        (Scenario.make ~update_interval:0.0 ~cache_blocks:64 [ Scenario.workload "read60" ]));
  (* A seed the canonical form could not hold would dump a scenario that
     no longer loads. *)
  Alcotest.check_raises "make refuses a seed beyond 2^53"
    (Invalid_argument "Scenario.make: seed must be between -2^53 and 2^53 at $.seed")
    (fun () ->
      ignore (Scenario.make ~seed:(1 lsl 60) ~cache_blocks:64 [ Scenario.workload "read60" ]));
  let edge = Scenario.make ~seed:(1 lsl 53) ~cache_blocks:64 [ Scenario.workload "read60" ] in
  chk_bool "a 2^53 seed round-trips" true
    (match Scenario.of_string (Scenario.to_string edge) with
    | Ok s -> s.Scenario.seed = 1 lsl 53
    | Error _ -> false);
  Alcotest.check_raises "workload refuses a zero file size"
    (Invalid_argument "Scenario.workload: file_blocks must be >= 1") (fun () ->
      ignore (Scenario.workload ~file_blocks:0 "read100"));
  Alcotest.check_raises "run_specs refuses a zero write cluster"
    (Invalid_argument "Scenario.run_specs: write_cluster must be >= 1 at $.fs.write_cluster")
    (fun () ->
      ignore
        (Scenario.run_specs ~write_cluster:0 ~cache_blocks:64 ~alloc_policy:Config.Lru_sp []))

let catalog () =
  chk_bool "read300! is foolish and smart by default" true
    (match Catalog.resolve "read300!" with
    | Ok e -> e.Catalog.smart_default
    | Error _ -> false);
  chk_bool "read300 is oblivious by default" true
    (match Catalog.resolve "read300" with
    | Ok e -> not e.Catalog.smart_default
    | Error _ -> false);
  chk_bool "read0 rejected" true (Result.is_error (Catalog.resolve "read0"));
  chk_bool "pjn lives on disk 1" true
    (match Catalog.resolve "pjn" with Ok e -> e.Catalog.disk = 1 | Error _ -> false)

let hash_distinguishes () =
  let s1 = Scenario.make ~cache_blocks:819 ~alloc_policy:Config.Lru_sp
      [ Scenario.workload "din" ] in
  let s2 = Scenario.make ~seed:1 ~cache_blocks:819 ~alloc_policy:Config.Lru_sp
      [ Scenario.workload "din" ] in
  chk_bool "different seeds hash differently" true (Scenario.hash s1 <> Scenario.hash s2);
  chk_bool "hash_list is order-sensitive" true
    (Scenario.hash_list [ s1; s2 ] <> Scenario.hash_list [ s2; s1 ])

let suites =
  [
    ( "scenario",
      [
        case "json round-trip" roundtrip_json;
        case "experiment grids round-trip" roundtrip_experiment_grids;
        case "save/load/run identical" save_load_run;
        case "load error on missing file" load_missing;
        case "catalog defaults fill in" defaults_fill_in;
        case "precise parse errors" errors;
        case "constructors share the ranges" constructor_ranges;
        case "catalog resolution" catalog;
        case "hashes distinguish" hash_distinguishes;
      ] );
  ]
