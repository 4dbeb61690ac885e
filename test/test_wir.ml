(* The workload IR.

   The heart of this suite is the lockstep section: for every
   application in the catalog it runs the pre-IR hand-written closure
   (copied verbatim below) and the compiled program side by side on
   identical machines and asserts the two runs are indistinguishable —
   same runner report, same recorded reference stream (blocks, hit/miss
   flags, order), and same observability event sequence, which covers
   both the data path and the fbehavior advice stream. Because the
   closures and the programs draw from the same per-process RNG, any
   divergence in draw order shows up here immediately.

   The rest covers the acfc-wir/1 codec (round-trips, precise parse
   error paths in the style of test_scenario), the static validator,
   [Wir.references] against a live recording, the Refstream conversions
   of satellite 1, and inline-program scenarios end to end. *)

open Acfc_scenario
module Wir = Acfc_wir.Wir
module Wirgen = Acfc_wirgen.Wirgen
module Block = Acfc_core.Block
module App = Acfc_workload.App
module Env = Acfc_wir.Env
module Runner = Acfc_workload.Runner
module Recorder = Acfc_replacement.Recorder
module Refstream = Acfc_replacement.Refstream
module Config = Acfc_core.Config
module Policy = Acfc_core.Policy
module Fs = Acfc_fs.Fs
module File = Acfc_fs.File
module Rng = Acfc_sim.Rng
module Obs = Acfc_obs
open Tutil

let chk_str = check Alcotest.string

let report r = Format.asprintf "%a" Runner.pp r

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

let expect_error msg = function
  | Ok _ -> Alcotest.fail ("succeeded; expected: " ^ msg)
  | Error e -> chk_str "error message" msg e

let block_bytes = Acfc_disk.Params.block_bytes

(* {2 The seed closures}

   Verbatim copies of the eight application bodies as they were before
   the IR refactor, so the lockstep tests compare against the original
   semantics and not against whatever the compilers currently emit. *)

let seed_symbol_search ?(name = "cs1") ?(database_blocks = 1141) ?(queries = 8)
    ?(cpu_per_block = 0.0024) () =
  let run env ~disk =
    let db =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "cscope.out")
        ~disk
        ~size_bytes:(database_blocks * block_bytes)
        ()
    in
    Env.set_priority env db 0;
    Env.set_policy env ~prio:0 Policy.Mru;
    for _query = 1 to queries do
      for index = 0 to database_blocks - 1 do
        Env.read_blocks env db ~first:index ~count:1;
        Env.compute env cpu_per_block
      done
    done
  in
  App.make ~name ~category:"cyclic" run

let seed_text_search ~name ~files ?(file_blocks = 50) ~queries ~cpu_per_block () =
  let run env ~disk =
    let sources =
      List.init files (fun i ->
          Fs.create_file env.Env.fs ~owner:env.Env.pid
            ~name:(Env.unique_name env (Printf.sprintf "src%02d.c" i))
            ~disk
            ~size_bytes:(file_blocks * block_bytes)
            ())
    in
    Env.set_policy env ~prio:0 Policy.Mru;
    for _query = 1 to queries do
      List.iter
        (fun file ->
          for index = 0 to file_blocks - 1 do
            Env.read_blocks env file ~first:index ~count:1;
            Env.compute env cpu_per_block
          done)
        sources
    done
  in
  App.make ~name ~category:"cyclic" run

let seed_din =
  let run env ~disk =
    let trace =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "cc.trace")
        ~disk
        ~size_bytes:(1024 * block_bytes)
        ()
    in
    Env.set_priority env trace 0;
    Env.set_policy env ~prio:0 Policy.Mru;
    for _sim = 1 to 9 do
      for index = 0 to 1023 do
        Env.read_blocks env trace ~first:index ~count:1;
        Env.compute env 0.0101
      done
    done
  in
  App.make ~name:"din" ~category:"cyclic" run

let seed_gli =
  let index_files =
    [ ".glimpse_index"; ".glimpse_partitions"; ".glimpse_filenames"; ".glimpse_statistics" ]
  in
  let index_blocks_per_file = 64 in
  let partitions = 64 in
  let partition_blocks = 80 in
  let queries = 5 in
  let partitions_per_query = 26 in
  let cpu_per_block = 0.0082 in
  let run env ~disk =
    let indexes =
      List.map
        (fun name ->
          Fs.create_file env.Env.fs ~owner:env.Env.pid
            ~name:(Env.unique_name env name)
            ~disk
            ~size_bytes:(index_blocks_per_file * block_bytes)
            ())
        index_files
    in
    let parts =
      Array.init partitions (fun i ->
          Fs.create_file env.Env.fs ~owner:env.Env.pid
            ~name:(Env.unique_name env (Printf.sprintf "partition.%02d" i))
            ~disk
            ~size_bytes:(partition_blocks * block_bytes)
            ())
    in
    List.iter (fun index -> Env.set_priority env index 1) indexes;
    Env.set_policy env ~prio:1 Policy.Mru;
    Env.set_policy env ~prio:0 Policy.Mru;
    for query = 0 to queries - 1 do
      List.iter
        (fun index ->
          for block = 0 to index_blocks_per_file - 1 do
            Env.read_blocks env index ~first:block ~count:1;
            Env.compute env cpu_per_block
          done)
        indexes;
      for p = 0 to partitions - 1 do
        if ((7 * p) + (13 * query)) mod partitions < partitions_per_query then
          for block = 0 to partition_blocks - 1 do
            Env.read_blocks env parts.(p) ~first:block ~count:1;
            Env.compute env cpu_per_block
          done
      done
    done
  in
  App.make ~name:"gli" ~category:"hot/cold" run

let seed_ldk =
  let object_files = 80 in
  let file_blocks = 40 in
  let symbol_blocks = 12 in
  let output_blocks = 1024 in
  let cpu_per_block = 0.0113 in
  let run env ~disk =
    let objects =
      Array.init object_files (fun i ->
          Fs.create_file env.Env.fs ~owner:env.Env.pid
            ~name:(Env.unique_name env (Printf.sprintf "obj%02d.o" i))
            ~disk
            ~size_bytes:(file_blocks * block_bytes)
            ())
    in
    let output =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "vmunix")
        ~disk ~size_bytes:0
        ~reserve_bytes:(output_blocks * block_bytes)
        ()
    in
    Array.iter
      (fun file ->
        for block = 0 to symbol_blocks - 1 do
          Env.read_blocks env file ~first:block ~count:1;
          Env.compute env cpu_per_block
        done)
      objects;
    Array.iter
      (fun file ->
        for block = 0 to file_blocks - 1 do
          Env.read_blocks env file ~first:block ~count:1;
          Env.compute env cpu_per_block;
          if block >= symbol_blocks then Env.done_with_block env file block
        done)
      objects;
    for block = 0 to output_blocks - 1 do
      Env.write_blocks env output ~first:block ~count:1;
      Env.compute env (cpu_per_block /. 2.0);
      Env.done_with_block env output block
    done
  in
  App.make ~name:"ldk" ~category:"access-once" run

let seed_pjn =
  let outer_blocks = 410 in
  let index_blocks = 640 in
  let internal_blocks = 40 in
  let inner_blocks = 4096 in
  let probes = 20_000 in
  let match_fraction = 0.2 in
  let cpu_per_probe = 0.0045 in
  let run env ~disk =
    let outer =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "twentyk")
        ~disk
        ~size_bytes:(outer_blocks * block_bytes)
        ()
    in
    let index =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "twohundredk_unique1")
        ~disk
        ~size_bytes:(index_blocks * block_bytes)
        ()
    in
    let inner =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "twohundredk")
        ~disk
        ~size_bytes:(inner_blocks * block_bytes)
        ()
    in
    Env.set_priority env index 1;
    let rng = env.Env.rng in
    for probe = 0 to probes - 1 do
      if probe mod (probes / outer_blocks) = 0 then begin
        let outer_block =
          Stdlib.min (probe / (probes / outer_blocks)) (outer_blocks - 1)
        in
        Env.read_blocks env outer ~first:outer_block ~count:1
      end;
      Env.read_blocks env index ~first:(Rng.int rng internal_blocks) ~count:1;
      Env.read_blocks env index
        ~first:(internal_blocks + Rng.int rng (index_blocks - internal_blocks))
        ~count:1;
      if Rng.float rng 1.0 < match_fraction then
        Env.read_blocks env inner ~first:(Rng.int rng inner_blocks) ~count:1;
      Env.compute env cpu_per_probe
    done
  in
  App.make ~name:"pjn" ~category:"hot/cold" run

let seed_sort =
  let input_blocks = 2176 in
  let run_blocks = 128 in
  let initial_runs = 17 in
  let merge_width = 8 in
  let sort_cpu_per_block = 0.065 in
  let merge_cpu_per_block = 0.028 in
  let write_cpu_per_block = 0.008 in
  let merge env ~disk ~name ~inputs =
    let total = List.fold_left (fun acc f -> acc + File.size_blocks f) 0 inputs in
    let output =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env name)
        ~disk ~size_bytes:0
        ~reserve_bytes:(total * block_bytes)
        ()
    in
    let files = Array.of_list inputs in
    let cursors = Array.map (fun _ -> 0) files in
    let remaining = ref (Array.length files) in
    let next_out = ref 0 in
    while !remaining > 0 do
      Array.iteri
        (fun i file ->
          if cursors.(i) < File.size_blocks file then begin
            let block = cursors.(i) in
            Env.read_blocks env file ~first:block ~count:1;
            Env.compute env merge_cpu_per_block;
            Env.done_with_block env file block;
            cursors.(i) <- block + 1;
            if cursors.(i) = File.size_blocks file then decr remaining;
            Env.write_blocks env output ~first:!next_out ~count:1;
            Env.compute env write_cpu_per_block;
            incr next_out
          end)
        files
    done;
    List.iter (fun file -> Fs.unlink env.Env.fs file) inputs;
    output
  in
  let run env ~disk =
    let input =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "input.txt")
        ~disk
        ~size_bytes:(input_blocks * block_bytes)
        ()
    in
    Env.set_policy env ~prio:(-1) Policy.Mru;
    Env.set_policy env ~prio:0 Policy.Mru;
    Env.set_priority env input (-1);
    let runs = ref [] in
    for r = 0 to initial_runs - 1 do
      let tmp =
        Fs.create_file env.Env.fs ~owner:env.Env.pid
          ~name:(Env.unique_name env (Printf.sprintf "tmp.run%02d" r))
          ~disk ~size_bytes:0
          ~reserve_bytes:(run_blocks * block_bytes)
          ()
      in
      for block = 0 to run_blocks - 1 do
        let input_block = (r * run_blocks) + block in
        Env.read_blocks env input ~first:input_block ~count:1;
        Env.compute env sort_cpu_per_block;
        Env.done_with_block env input input_block;
        Env.write_blocks env tmp ~first:block ~count:1;
        Env.compute env write_cpu_per_block
      done;
      runs := tmp :: !runs
    done;
    let runs = List.rev !runs in
    let rec merge_all generation files =
      match files with
      | [] -> ()
      | [ _final ] -> ()
      | _ ->
        let rec take n = function
          | [] -> ([], [])
          | l when n = 0 -> ([], l)
          | x :: rest ->
            let batch, leftover = take (n - 1) rest in
            (x :: batch, leftover)
        in
        let rec level i files acc =
          match files with
          | [] -> List.rev acc
          | _ ->
            let batch, rest = take merge_width files in
            let merged =
              merge env ~disk
                ~name:(Printf.sprintf "tmp.merge%d_%d" generation i)
                ~inputs:batch
            in
            level (i + 1) rest (merged :: acc)
        in
        merge_all (generation + 1) (level 0 files [])
    in
    merge_all 0 runs
  in
  App.make ~name:"sort" ~category:"write-then-read" run

let seed_readn ?(file_blocks = 1200) ~n ~mode () =
  let repeats = 5 in
  let cpu_per_block = 0.0075 in
  let name =
    Printf.sprintf "read%d%s" n (match mode with `Foolish -> "!" | `Oblivious -> "")
  in
  let run env ~disk =
    let file =
      Fs.create_file env.Env.fs ~owner:env.Env.pid
        ~name:(Env.unique_name env "readn.dat")
        ~disk
        ~size_bytes:(file_blocks * block_bytes)
        ()
    in
    (match mode with
    | `Foolish ->
      Env.set_priority env file 0;
      Env.set_policy env ~prio:0 Policy.Mru
    | `Oblivious -> ());
    let group = ref 0 in
    while !group * n < file_blocks do
      let first = !group * n in
      let count = Stdlib.min n (file_blocks - first) in
      for _pass = 1 to repeats do
        for block = first to first + count - 1 do
          Env.read_blocks env file ~first:block ~count:1;
          Env.compute env cpu_per_block
        done
      done;
      incr group
    done
  in
  App.make ~name ~category:"grouped-cyclic" run

(* {2 Lockstep equivalence} *)

(* One application on one machine, capturing everything observable:
   the runner report, the recorded hit/miss reference stream, and the
   full observability event sequence (engine, syscalls including the
   strategy calls, cache, bus, disks). *)
let run_capture ?(seed = 11) ~smart app =
  let recorder = Recorder.create () in
  let events = ref [] in
  let sink =
    Obs.Sink.create ~backend:(Obs.Sink.Custom (fun r -> events := r :: !events)) ()
  in
  let result =
    Scenario.run_specs ~seed ~tracer:(Recorder.tracer recorder) ~obs:sink
      ~cache_blocks:819 ~alloc_policy:Config.Lru_sp
      [ Runner.Spec.make ~smart ~disk:0 app ]
  in
  (report result, Recorder.stream recorder, List.rev !events)

let lockstep ?smart name seed_app () =
  let entry = ok (Catalog.resolve name) in
  (match App.program entry.Catalog.app with
  | Some p -> ok (Wir.validate p)
  | None -> Alcotest.fail (name ^ ": catalog application is not an IR program"));
  let smart = match smart with Some s -> s | None -> entry.Catalog.smart_default in
  let closure_report, closure_refs, closure_events = run_capture ~smart seed_app in
  let program_report, program_refs, program_events =
    run_capture ~smart entry.Catalog.app
  in
  chk_str "runner report identical" closure_report program_report;
  chk_int "reference count" (Array.length closure_refs) (Array.length program_refs);
  chk_bool "reference stream identical (blocks, hits, order)" true
    (closure_refs = program_refs);
  chk_int "event count" (List.length closure_events) (List.length program_events);
  chk_bool "event sequence identical (data path + advice stream)" true
    (closure_events = program_events)

let lockstep_cases =
  [
    case "din lockstep" (lockstep "din" seed_din);
    case "din lockstep (oblivious)" (lockstep ~smart:false "din" seed_din);
    case "cs1 lockstep" (lockstep "cs1" (seed_symbol_search ()));
    case "cs2 lockstep"
      (lockstep "cs2"
         (seed_text_search ~name:"cs2" ~files:47 ~queries:5 ~cpu_per_block:0.0137 ()));
    case "cs3 lockstep"
      (lockstep "cs3"
         (seed_text_search ~name:"cs3" ~files:36 ~file_blocks:48 ~queries:4
            ~cpu_per_block:0.008 ()));
    case "gli lockstep" (lockstep "gli" seed_gli);
    case "ldk lockstep" (lockstep "ldk" seed_ldk);
    case "pjn lockstep" (lockstep "pjn" seed_pjn);
    case "sort lockstep" (lockstep "sort" seed_sort);
    case "read300 lockstep"
      (lockstep "read300" (seed_readn ~n:300 ~mode:`Oblivious ()));
    case "read300! lockstep"
      (lockstep "read300!" (seed_readn ~n:300 ~mode:`Foolish ()));
  ]

(* {2 The fast-forwarded demand stream} *)

let program_of name =
  match App.program (ok (Catalog.resolve name)).Catalog.app with
  | Some p -> p
  | None -> Alcotest.fail (name ^ " is not a program")

let references_match_live () =
  (* A deterministic program's fast-forwarded stream is exactly the
     demand reference stream a live run records (slot index = file id
     on a single-workload machine). *)
  let recorder = Recorder.create () in
  ignore
    (Scenario.run_specs ~seed:3 ~tracer:(Recorder.tracer recorder) ~cache_blocks:819
       ~alloc_policy:Config.Lru_sp
       [ Runner.Spec.make ~smart:true ~disk:0 (ok (Catalog.resolve "din")).Catalog.app ]);
  let live = Refstream.demand (Recorder.stream recorder) in
  let fast = Wir.references (program_of "din") in
  chk_int "same length" (Array.length live) (Array.length fast);
  chk_bool "same stream" true (live = fast)

let reference_counts () =
  let count name = Array.length (Wir.references (program_of name)) in
  chk_int "din: 9 passes over 1024 blocks" 9216 (count "din");
  chk_int "ldk: symbols + full scan + image" 5184 (count "ldk");
  chk_int "cs1: 8 queries over 1141 blocks" 9128 (count "cs1");
  chk_int "din op count" 5 (Wir.op_count (program_of "din"));
  chk_int "din file count" 1 (Wir.file_count (program_of "din"));
  chk_int "sort file count" 22 (Wir.file_count (program_of "sort"))

let references_reproducible () =
  (* pjn is stochastic: the stream is a function of the RNG handed in. *)
  let pjn = program_of "pjn" in
  let a = Wir.references ~rng:(Rng.create 5) pjn in
  let b = Wir.references ~rng:(Rng.create 5) pjn in
  let c = Wir.references ~rng:(Rng.create 6) pjn in
  chk_bool "same seed, same stream" true (a = b);
  chk_bool "different seed, different stream" false (a = c)

(* The one walk, packed: at file offset [k] it is [Block.pack] of each
   [references] block with [k] added to its file id, over generated
   programs that branch ([choice]) and draw ([rand_read]), and it leaves
   the RNG where [references] does. *)
let packed_walk_matches_references =
  let spec =
    {
      Wirgen.default with
      Wirgen.name = "packed";
      mix = [ (Wirgen.Hot_cold, 1.0); (Wirgen.Random, 1.0); (Wirgen.Access_once, 1.0) ];
    }
  in
  qcheck "packed walk = Block.pack of references, at any file offset" ~count:60
    QCheck2.Gen.(
      triple (int_range 0 10_000) (int_range 0 10_000)
        (oneof [ int_range 0 64; int_range 0 ((1 lsl 30) - 64) ]))
    (fun (corpus_seed, rng_seed, k) ->
      List.for_all
        (fun p ->
          let r1 = Rng.create rng_seed and r2 = Rng.create rng_seed in
          let packed = Wir.packed_references ~rng:r1 ~file_offset:k p in
          let blocks = Wir.references ~rng:r2 p in
          let shifted b =
            Block.pack (Block.make ~file:(k + Block.file b) ~index:(Block.index b))
          in
          packed = Array.map shifted blocks && Rng.bits64 r1 = Rng.bits64 r2)
        (Wirgen.corpus spec ~seed:corpus_seed ~count:4))

let packed_walk_range () =
  let p =
    Wir.make ~name:"t" ~category:"custom"
      [
        Wir.open_file ~name:"a" ~size_blocks:4 ();
        Wir.open_file ~name:"b" ~size_blocks:4 ();
        Wir.read ~file:1 ~first:0 ~count:4 ();
      ]
  in
  chk_int "last packable file id" 4
    (Array.length (Wir.packed_references ~file_offset:((1 lsl 30) - 2) p));
  Alcotest.check_raises "file id past the packable range"
    (Invalid_argument "Wir.packed_references: block out of packable range") (fun () ->
      ignore (Wir.packed_references ~file_offset:((1 lsl 30) - 1) p))

(* {2 acfc-wir/1 codec} *)

let roundtrip_catalog () =
  let progs =
    List.map (fun name -> (name, program_of name)) Catalog.app_names
    @ [ ("read300", program_of "read300"); ("read300!", program_of "read300!") ]
  in
  List.iter
    (fun (name, p) ->
      let s = Wir.to_string p in
      let p' = ok (Wir.of_string s) in
      chk_str (name ^ " fixed point") s (Wir.to_string p');
      chk_str (name ^ " hash stable") (Wir.hash p) (Wir.hash p');
      ok (Wir.validate p'))
    progs

let roundtrip_structural () =
  (* A program exercising every op and every omitted default. *)
  let p =
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
            Wir.rand_read ~file:0 ~base:0 ~range:10 ();
            Wir.choice ~prob:0.5
              [ Wir.write ~done_with:true ~file:1 ~first:0 ~count:4 () ]
              [ Wir.compute 0.002 ];
          ];
        Wir.seq [ Wir.done_with ~file:0 ~index:3 ];
        Wir.unlink 1;
      ]
  in
  ok (Wir.validate p);
  let p' = ok (Wir.of_json (Wir.to_json p)) in
  chk_bool "of_json (to_json p) = p" true (p = p')

let minimal_wir =
  {|{"schema":"acfc-wir/1","name":"t","ops":[{"op":"open","name":"f","size_blocks":4},{"op":"read","file":0,"first":0,"count":4}]}|}

let parse_errors () =
  (* First-occurrence substring replace, to derive each malformed
     input from [minimal_wir]. *)
  let replace ~sub ~by s =
    let rec find i =
      if i + String.length sub > String.length s then
        Alcotest.fail ("fixture lost substring " ^ sub)
      else if String.sub s i (String.length sub) = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i ^ by
    ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)
  in
  List.iter
    (fun (json, msg) -> expect_error msg (Wir.of_string json))
    [
      ( replace ~sub:{|"count":4|} ~by:{|"cnt":4|} minimal_wir,
        {|wir: unknown field "cnt" at $.ops[1]|} );
      ( replace ~sub:{|"op":"read"|} ~by:{|"op":"raed"|} minimal_wir,
        "wir: unknown op \"raed\" (expected open, read, write, rand_read, compute, \
         advise, unlink, seq, loop or choice) at $.ops[1].op" );
      ( replace ~sub:"acfc-wir/1" ~by:"acfc-wir/9" minimal_wir,
        {|wir: unsupported schema "acfc-wir/9" (expected acfc-wir/1) at $.schema|} );
      ( replace ~sub:{|"file":0,|} ~by:"" minimal_wir,
        {|wir: missing required field "file" at $.ops[1]|} );
      ( replace ~sub:{|{"op":"read","file":0,"first":0,"count":4}|}
          ~by:{|{"op":"advise","kind":"pinned","file":0}|} minimal_wir,
        "wir: unknown advice kind \"pinned\" (expected priority, policy, temppri \
         or done_with) at $.ops[1].kind" );
      ( replace ~sub:{|{"op":"read","file":0,"first":0,"count":4}|}
          ~by:{|{"op":"advise","kind":"policy","prio":0,"policy":"fifo"}|} minimal_wir,
        {|wir: unknown policy "fifo" (expected lru or mru) at $.ops[1].policy|} );
      ( replace ~sub:{|"name":"t",|} ~by:{|"name":"t","author":"x",|} minimal_wir,
        {|wir: unknown field "author" at $|} );
      ( replace ~sub:{|"first":0|} ~by:{|"first":0.5|} minimal_wir,
        {|wir: expected an integer at $.ops[1].first|} );
    ];
  (match Wir.of_string "{" with
  | Ok _ -> Alcotest.fail "parsed malformed JSON"
  | Error e ->
    chk_bool "invalid JSON is prefixed" true (contains_sub ~sub:"wir: invalid JSON" e))

let validate_errors () =
  let p ops = Wir.make ~name:"t" ~category:"custom" ops in
  let f = Wir.open_file ~name:"f" ~size_blocks:10 () in
  let out = Wir.open_file ~name:"out" ~size_blocks:0 ~reserve_blocks:8 () in
  List.iter
    (fun (program, msg) -> expect_error msg (Wir.validate program))
    [
      ( p [ Wir.read ~file:2 ~first:0 ~count:1 () ],
        "wir: file 2 is not open (0 files opened so far) at $.ops[0]" );
      ( p [ Wir.loop 2 [ Wir.open_file ~name:"f" ~size_blocks:1 () ] ],
        "wir: open is not allowed inside loop or choice at $.ops[0].body[0]" );
      ( p [ f; Wir.read ~file:0 ~first:0 ~count:20 () ],
        "wir: read of blocks [0, 20) exceeds file 0's 10-block extent at $.ops[1]" );
      ( p [ f; Wir.choice ~prob:0.5 [ Wir.read ~file:1 ~first:0 ~count:1 () ] [] ],
        "wir: file 1 is not open (1 file opened so far) at $.ops[1].then[0]" );
      ( p [ f; Wir.unlink 0; Wir.read ~file:0 ~first:0 ~count:1 () ],
        "wir: file 0 was unlinked at $.ops[2]" );
      ( p [ Wir.choice ~prob:1.5 [] [] ],
        "wir: prob must be between 0 and 1 at $.ops[0]" );
      ( p [ f; Wir.open_file ~name:"f" ~size_blocks:1 () ],
        {|wir: duplicate file name "f" at $.ops[1]|} );
      (* A read must stay below the blocks certainly written by then:
         size_blocks, raised only by writes that must have run. *)
      ( p [ out; Wir.read ~file:0 ~first:0 ~count:1 () ],
        "wir: read of blocks [0, 1) is past the end of file 0 (0 blocks written here) \
         at $.ops[1]" );
      ( p [ out; Wir.write ~file:0 ~first:0 ~count:2 (); Wir.read ~file:0 ~first:0 ~count:3 () ],
        "wir: read of blocks [0, 3) is past the end of file 0 (2 blocks written here) \
         at $.ops[2]" );
      ( p
          [
            out;
            Wir.choice ~prob:0.5 [ Wir.write ~file:0 ~first:0 ~count:4 () ] [];
            Wir.rand_read ~file:0 ~base:0 ~range:4 ();
          ],
        "wir: read of blocks [0, 4) is past the end of file 0 (0 blocks written here) \
         at $.ops[2]" );
      ( p
          [
            out;
            Wir.loop 0 [ Wir.write ~file:0 ~first:0 ~count:4 () ];
            Wir.loop 3 [ Wir.read ~file:0 ~first:3 ~count:1 () ];
          ],
        "wir: read of blocks [3, 4) is past the end of file 0 (0 blocks written here) \
         at $.ops[2].body[0]" );
      (* Block indices past 2^32 - 1 would alias the next file's packed
         keys. *)
      ( p [ f; Wir.open_file ~name:"big.dat" ~size_blocks:(1 lsl 33) () ],
        "wir: extent of 8589934592 blocks exceeds the 2^32 blocks a file can hold at \
         $.ops[1]" );
      ( p [ Wir.open_file ~name:"out" ~size_blocks:0 ~reserve_blocks:((1 lsl 32) + 1) () ],
        "wir: extent of 4294967297 blocks exceeds the 2^32 blocks a file can hold at \
         $.ops[0]" );
    ];
  List.iter
    (fun (what, ops) -> chk_bool what true (Wir.validate (p ops) = Ok ()))
    [
      ("reads below size_blocks", [ f; Wir.rand_read ~file:0 ~base:0 ~range:10 () ]);
      ( "reads after a top-level write",
        [ out; Wir.write ~file:0 ~first:4 ~count:4 (); Wir.read ~file:0 ~first:0 ~count:8 () ] );
      ( "reads after a write in a loop that runs",
        [
          out;
          Wir.loop 2 [ Wir.write ~file:0 ~first:0 ~count:8 (); Wir.read ~file:0 ~first:7 ~count:1 () ];
          Wir.rand_read ~file:0 ~base:0 ~range:8 ();
        ] );
      ( "a 2^32-block file",
        [
          Wir.open_file ~name:"big.dat" ~size_blocks:(1 lsl 32) ();
          Wir.rand_read ~file:0 ~base:((1 lsl 32) - 10) ~range:10 ();
        ] );
    ]

(* {2 Refstream: the one reference-stream representation} *)

let refstream_conversions () =
  let bare = [| blk 1; blk ~file:2 5 |] in
  let lifted = Refstream.of_blocks bare in
  chk_int "of_blocks keeps length" 2 (Array.length lifted);
  chk_bool "demand inverts of_blocks" true (Refstream.demand lifted = bare);
  let annotated =
    [|
      { Refstream.pid = pid 1; block = blk 3; hit = true; prefetch = false };
      { Refstream.pid = pid 2; block = blk ~file:1 0; hit = false; prefetch = true };
      { Refstream.pid = pid 1; block = blk 4; hit = false; prefetch = false };
    |]
  in
  chk_bool "demand drops prefetch" true
    (Refstream.demand annotated = [| blk 3; blk 4 |]);
  chk_bool "include_prefetch keeps it" true
    (Refstream.demand ~include_prefetch:true annotated = [| blk 3; blk ~file:1 0; blk 4 |]);
  chk_bool "pid filter" true (Refstream.demand ~pid:(pid 2) annotated = [||])

let refstream_codec () =
  let stream =
    [|
      { Refstream.pid = pid 1; block = blk 3; hit = true; prefetch = false };
      { Refstream.pid = pid 2; block = blk ~file:1 0; hit = false; prefetch = true };
    |]
  in
  let path = Filename.temp_file "acfc_refstream" ".trace" in
  let oc = open_out path in
  Refstream.save stream oc;
  close_out oc;
  let ic = open_in path in
  let stream' = Refstream.load ic in
  close_in ic;
  Sys.remove path;
  chk_bool "text codec round-trips" true (stream = stream')

(* {2 Inline-program scenarios} *)

let tiny_program =
  Wir.make ~name:"tiny" ~category:"custom"
    [
      Wir.open_file ~name:"f.dat" ~size_blocks:8 ();
      Wir.loop 2 [ Wir.read ~cpu:0.001 ~file:0 ~first:0 ~count:8 () ];
    ]

let inline_minimal =
  {|{"schema":"acfc-scenario/1","cache":{"capacity_blocks":64},"workloads":[{"program":{"schema":"acfc-wir/1","name":"tiny","category":"custom","ops":[{"op":"open","name":"f.dat","size_blocks":8},{"op":"loop","times":2,"body":[{"op":"read","file":0,"first":0,"count":8,"cpu":0.001}]}]}}]}|}

let inline_scenario_runs () =
  let s = ok (Scenario.of_string inline_minimal) in
  let r = Scenario.run s in
  (match r.Runner.apps with
  | [ a ] ->
    chk_str "app name comes from the program" "tiny" a.Runner.app_name;
    chk_int "8 compulsory block I/Os" 8 a.Runner.block_ios
  | apps -> Alcotest.fail (Printf.sprintf "expected 1 app, got %d" (List.length apps)));
  (* The same scenario built in OCaml runs identically. *)
  let built =
    Scenario.make ~cache_blocks:64 ~alloc_policy:Config.Lru_sp
      [ Scenario.inline_workload tiny_program ]
  in
  chk_str "JSON and constructed scenarios agree" (report r) (report (Scenario.run built))

let inline_roundtrip () =
  let s =
    Scenario.make ~seed:9 ~cache_blocks:64 ~alloc_policy:Config.Lru_sp
      [ Scenario.inline_workload ~smart:false ~disk:1 tiny_program ]
  in
  let s' = ok (Scenario.of_string (Scenario.to_string s)) in
  chk_str "inline scenario round-trips" (Scenario.to_string s) (Scenario.to_string s');
  chk_str "hash stable" (Scenario.hash s) (Scenario.hash s')

let inline_errors () =
  let prog_json =
    {|{"schema":"acfc-wir/1","name":"t","ops":[{"op":"open","name":"f","size_blocks":1}]}|}
  in
  let with_workload w =
    {|{"schema":"acfc-scenario/1","cache":{"capacity_blocks":64},"workloads":[|} ^ w
    ^ {|]}|}
  in
  List.iter
    (fun (json, msg) -> expect_error msg (Scenario.of_string json))
    [
      ( with_workload ({|{"app":"din","program":|} ^ prog_json ^ "}"),
        {|scenario: pass "app" or "program", not both at $.workloads[0]|} );
      ( with_workload {|{"smart":true}|},
        {|scenario: missing required field "app" or "program" at $.workloads[0]|} );
      ( with_workload ({|{"program":|} ^ prog_json ^ {|,"file_blocks":100}|}),
        "scenario: an inline program does not take file_blocks at \
         $.workloads[0].program" );
      ( with_workload
          {|{"program":{"schema":"acfc-wir/1","name":"t","ops":[{"op":"raed"}]}}|},
        "scenario: unknown op \"raed\" (expected open, read, write, rand_read, \
         compute, advise, unlink, seq, loop or choice) at \
         $.workloads[0].program.ops[0].op" );
      ( with_workload
          {|{"program":{"schema":"acfc-wir/1","name":"t","ops":[{"op":"read","file":0,"first":0,"count":1}]}}|},
        "scenario: file 0 is not open (0 files opened so far) at \
         $.workloads[0].program.ops[0]" );
    ];
  Alcotest.check_raises "inline_workload validates"
    (Invalid_argument
       "Scenario.inline_workload: wir: file 0 is not open (0 files opened so far) \
        at $.ops[0]")
    (fun () ->
      ignore
        (Scenario.inline_workload
           (Wir.make ~name:"bad" ~category:"custom"
              [ Wir.read ~file:0 ~first:0 ~count:1 () ])))

let inline_workloads_equivalent () =
  (* Inlining the catalog references of a scenario must not change the
     run: same machine, same programs, same results. *)
  let named =
    Scenario.make ~seed:5 ~cache_blocks:819 ~alloc_policy:Config.Lru_sp
      [ Scenario.workload "din"; Scenario.workload ~file_blocks:700 "read300" ]
  in
  let inlined = Scenario.inline_workloads named in
  chk_str "named and inlined runs identical" (report (Scenario.run named))
    (report (Scenario.run inlined));
  (* The inlined form is pure data: it survives the codec. *)
  let s' = ok (Scenario.of_string (Scenario.to_string inlined)) in
  chk_str "inlined scenario round-trips" (Scenario.to_string inlined)
    (Scenario.to_string s')

let suites =
  [
    ("wir lockstep", lockstep_cases);
    ( "wir",
      [
        case "references match a live recording" references_match_live;
        case "reference counts and stats" reference_counts;
        case "stochastic streams reproducible" references_reproducible;
        packed_walk_matches_references;
        case "packed walk refuses unpackable file ids" packed_walk_range;
        case "catalog programs round-trip" roundtrip_catalog;
        case "kitchen-sink structural round-trip" roundtrip_structural;
        case "precise parse errors" parse_errors;
        case "precise validate errors" validate_errors;
        case "refstream conversions" refstream_conversions;
        case "refstream text codec" refstream_codec;
      ] );
    ( "wir scenarios",
      [
        case "inline program runs end-to-end" inline_scenario_runs;
        case "inline scenario round-trips" inline_roundtrip;
        case "inline parse and validate errors" inline_errors;
        case "inline_workloads preserves runs" inline_workloads_equivalent;
      ] );
  ]
