(* The benchmark's workloads: what one unit is, how each workload's
   units are drawn from the seed, and how a unit is executed and
   rendered.

   A unit is one call the benchmark times: one [Scenario.run], one
   [Fleet.run], or one replay pass of a generated trace through
   [Policy_sim.run] or [Cache.read]. Set-up builds every input a unit
   needs (scenarios, corpora, demand streams) before the first timed
   call, so the timed phase contains nothing but the calls. *)

module Scenario = Acfc_scenario.Scenario
module Runner = Acfc_workload.Runner
module Wir = Acfc_wir.Wir
module Wirgen = Acfc_wirgen.Wirgen
module Block = Acfc_core.Block
module Cache = Acfc_core.Cache
module Config = Acfc_core.Config
module Pid = Acfc_core.Pid
module Policy_sim = Acfc_replacement.Policy_sim
module Policies = Acfc_replacement.Policies
module Fleet = Acfc_fleet.Fleet
module Rng = Acfc_sim.Rng

type workload = Paper_read | Paper_write | Policy_replay | Fleet_w

let workloads =
  [
    ("paper-read", Paper_read);
    ("paper-write", Paper_write);
    ("policy-replay", Policy_replay);
    ("fleet", Fleet_w);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* A replay trace: the demand streams of a generated corpus, file ids
   renumbered so programs never share a block, merged in a seeded fair
   interleaving and cut to a fixed length. [owner.(f)] is the program
   that opened file [f]. *)
type trace = {
  label : string;
  blocks : Block.t array;
  owner : int array;
  programs : (Wir.t * int) list;  (** each program with its RNG seed *)
  working_set : int;
  hash : string;
}

type kind =
  | Run of { scn : Scenario.t; programs : Wir.t array; streams : Block.t array array }
  | Fleet_run of { scn : Scenario.t; programs : Wir.t array; streams : Block.t array array }
  | Policy_pass of { policy : (module Policy_sim.POLICY); capacity : int; trace : trace }
  | Cache_pass of { alloc : Config.alloc_policy; capacity : int; trace : trace }

type t = {
  id : string;
  kind : kind;
  input : string;  (** hex digest of everything the unit's output depends on *)
  golden : string option;  (** committed output the unit must reproduce byte for byte *)
}

type setup = {
  units : t list;
  traces : trace list;
  parse_s : float;  (** reading and parsing committed scenario files *)
  wirgen_s : float;  (** generating corpora *)
}

(* {2 Sizes} *)

(* Every trace of policy-replay has exactly this many references, so a
   unit's cost does not depend on how long the seed's programs are. *)
let replay_refs = 5000

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let timed acc f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  acc := !acc +. (Unix.gettimeofday () -. t0);
  v

let programs_of scn =
  Array.of_list
    (List.map
       (fun w ->
         match w.Scenario.app with
         | Scenario.Inline p -> p
         | Scenario.Named _ -> failwith "perfbench: workload did not inline")
       (Scenario.inline_workloads scn).Scenario.workloads)

let streams_of scn programs =
  Array.of_list
    (List.mapi (fun i rng -> Wir.references ~rng programs.(i)) (Scenario.workload_rngs scn))

(* {2 Scenario units} *)

let load ~root ~parse name =
  match timed parse (fun () -> Scenario.load (Filename.concat root name)) with
  | Ok scn -> scn
  | Error msg -> failwith msg

let golden ~root name = Some (read_file (Filename.concat root ("test/golden/" ^ name)))

let scenario_unit ?golden id scn =
  let programs = programs_of scn in
  let streams = streams_of scn programs in
  let kind =
    if scn.Scenario.fleet = None then Run { scn; programs; streams }
    else Fleet_run { scn; programs; streams }
  in
  { id; kind; input = Scenario.hash scn; golden }

let paper ~seed ?write_cluster mb names =
  Scenario.make ~seed ?write_cluster ~cache_blocks:(Scenario.blocks_of_mb mb)
    ~alloc_policy:Config.Lru_sp
    (List.map (fun n -> Scenario.workload n) names)

let mix_id ?write_cluster mb names =
  Printf.sprintf "%s@%gMB%s" (String.concat "+" names) mb
    (match write_cluster with Some c -> Printf.sprintf ":wc%d" c | None -> "")

(* The read-only members of the paper's Figure 5/6 mixes, plus a
   foolish readN! beside an oblivious readN (Table 1/2). Run once with
   the cache below each mix's working set (6.4 MB, the paper's
   default) and once above it (16 MB). *)
let read_mixes =
  [
    [ "cs2"; "gli" ];
    [ "din"; "cs2" ];
    [ "cs1"; "gli" ];
    [ "din"; "cs3"; "gli" ];
    [ "cs3" ];
    [ "pjn" ];
    [ "din" ];
    [ "gli" ];
    [ "read300!"; "read100" ];
  ]

(* The Figure 5 mixes that contain a writer (sort: 6,528 block writes;
   ldk: 1,024), at the paper's 6.4 MB. *)
let write_mixes =
  [ [ "cs3"; "ldk" ]; [ "gli"; "sort" ]; [ "sort"; "ldk" ]; [ "pjn"; "ldk" ]; [ "din"; "sort" ] ]

(* A program that rewrites the file it reads, in place, twice over,
   then appends a journal: every block of [table.dat] is dirtied while
   resident, so write-back and the update daemon carry real traffic. *)
let rewrite_program =
  Wir.make ~name:"rewrite" ~category:"read-modify-write"
    [
      Wir.open_file ~name:"table.dat" ~size_blocks:600 ();
      Wir.open_file ~reserve_blocks:200 ~name:"journal.dat" ~size_blocks:0 ();
      Wir.loop 2
        [
          Wir.read ~cpu:0.001 ~file:0 ~first:0 ~count:600 ();
          Wir.write ~cpu:0.001 ~file:0 ~first:0 ~count:600 ();
        ];
      Wir.loop 400 [ Wir.rand_read ~cpu:0.0005 ~file:0 ~base:0 ~range:600 () ];
      Wir.write ~cpu:0.0005 ~done_with:true ~file:1 ~first:0 ~count:200 ();
    ]

let offset_seed seed scn = { scn with Scenario.seed = scn.Scenario.seed + seed }

let paper_read ~root ~seed ~parse =
  let mixes =
    List.concat_map
      (fun names ->
        List.mapi
          (fun k mb ->
            scenario_unit (mix_id mb names) (paper ~seed:(seed + k) mb names))
          [ 6.4; 16.0 ])
      read_mixes
  in
  let committed name =
    scenario_unit name
      (offset_seed seed (load ~root ~parse ("examples/scenarios/" ^ name ^ ".json")))
  in
  mixes
  @ [
      committed "mixed_smart_oblivious";
      committed "scan_scheduler";
      (* A golden pins this one, so it runs at its committed seed. *)
      scenario_unit ?golden:(golden ~root "adaptive_arc.txt") "adaptive_arc"
        (load ~root ~parse "examples/scenarios/adaptive_arc.json");
    ]

let paper_write ~root ~seed ~parse =
  let clusters = [ 1; 8 ] in
  let mixes =
    List.concat_map
      (fun names ->
        List.map
          (fun wc ->
            scenario_unit (mix_id ~write_cluster:wc 6.4 names)
              (paper ~seed ~write_cluster:wc 6.4 names))
          clusters)
      write_mixes
  in
  let rewrite =
    List.map
      (fun wc ->
        scenario_unit
          (Printf.sprintf "rewrite+din@6.4MB:wc%d" wc)
          (Scenario.make ~seed ~write_cluster:wc ~cache_blocks:(Scenario.blocks_of_mb 6.4)
             [ Scenario.inline_workload ~smart:false rewrite_program; Scenario.workload "din" ]))
      clusters
  in
  let golden_scn name =
    scenario_unit
      ?golden:(golden ~root ("scenario_" ^ name ^ ".txt"))
      name
      (load ~root ~parse ("examples/scenarios/" ^ name ^ ".json"))
  in
  mixes @ rewrite @ [ golden_scn "fig5_cs3_ldk"; golden_scn "inline_workload" ]

(* {2 Fleet units} *)

let random_program blocks =
  Wir.make ~name:"rnd" ~category:"random"
    [
      Wir.open_file ~name:"rnd.dat" ~size_blocks:blocks ();
      Wir.loop blocks [ Wir.rand_read ~cpu:0.001 ~file:0 ~base:0 ~range:blocks () ];
    ]

(* 16 clients, each with one server-backed file (slot 0, read
   sequentially in groups) plus a local random and a local sequential
   file of 80 blocks each, in front of a shared 128-block server cache.
   Variants differ in link latency (so in epoch length) and seed. *)
let fleet_scenario ~seed ~latency_ms =
  let blocks = 80 in
  Scenario.make ~seed ~cache_blocks:64
    ~fleet:
      (Scenario.fleet ~shared_files:1 ~clients:16 ~server_cache_blocks:128 ~latency_ms
         ~bandwidth_mb_per_s:20.0 ())
    [
      Scenario.workload ~smart:false ~disk:0 ~file_blocks:blocks "read40";
      Scenario.inline_workload ~smart:false ~disk:0 (random_program blocks);
      Scenario.workload ~smart:false ~disk:1 ~file_blocks:blocks "read60";
    ]

let fleet ~root ~seed ~parse =
  let variants =
    List.concat_map
      (fun latency_ms ->
        List.init 8 (fun k ->
            scenario_unit
              (Printf.sprintf "fleet16:lat%g:k%d" latency_ms k)
              (fleet_scenario ~seed:((100 * seed) + k) ~latency_ms)))
      [ 2.0; 4.0; 8.0 ]
  in
  variants
  @ [
      scenario_unit ?golden:(golden ~root "fleet_small.txt") "fleet_small"
        (load ~root ~parse "examples/scenarios/fleet_small.json");
    ]

(* {2 Replay units} *)

(* Fixed program shapes (two 64-block files, three passes), so a
   seed changes what the programs do but hardly how much: each trace's
   working set, and so every pass's cost, stays nearly seed-independent. *)
let pattern_spec p =
  {
    Wirgen.default with
    name = "pb-" ^ Wirgen.pattern_to_string p;
    mix = [ (p, 1.0) ];
    files = (2, 2);
    file_blocks = (64, 64);
    passes = (3, 3);
  }

(* Draw programs of one pattern until their streams hold [refs]
   references, then interleave and cut. Program [k] of seed [s] is
   [Wirgen.generate ~seed:(1000 * s + k)], so seeds never share a
   program. *)
let make_trace ~seed ~refs ~wirgen_s p =
  let spec = pattern_spec p in
  let rec draw k total acc =
    if total >= refs then List.rev acc
    else
      let pseed = (1000 * seed) + k in
      let prog = timed wirgen_s (fun () -> Wirgen.generate spec ~seed:pseed) in
      let stream = Wir.references ~rng:(Rng.create pseed) prog in
      draw (k + 1) (total + Array.length stream) ((prog, pseed, stream) :: acc)
  in
  let drawn = draw 0 0 [] in
  let offset = ref 0 and owner = ref [] in
  let renumbered =
    List.mapi
      (fun i (prog, _, stream) ->
        let base = !offset in
        let files = Wir.file_count prog in
        offset := base + files;
        owner := List.init files (fun _ -> i) :: !owner;
        Array.map (fun b -> Block.make ~file:(base + Block.file b) ~index:(Block.index b)) stream)
      drawn
  in
  (* Seeded fair merge: each step takes the next reference of a
     uniformly chosen stream that still has references left. *)
  let rng = Rng.create (seed + 7919) in
  let streams = Array.of_list renumbered in
  let pos = Array.make (Array.length streams) 0 in
  let live = ref (List.init (Array.length streams) Fun.id) in
  let out = Array.make refs (Block.make ~file:0 ~index:0) in
  let n = ref 0 in
  while !n < refs && !live <> [] do
    let l = Array.of_list !live in
    let i = l.(Rng.int rng (Array.length l)) in
    out.(!n) <- streams.(i).(pos.(i));
    incr n;
    pos.(i) <- pos.(i) + 1;
    if pos.(i) >= Array.length streams.(i) then live := List.filter (( <> ) i) !live
  done;
  let blocks = Array.sub out 0 !n in
  let programs = List.map (fun (prog, pseed, _) -> (prog, pseed)) drawn in
  let hash =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (List.map (fun b -> string_of_int (Block.pack b)) (Array.to_list blocks))))
  in
  {
    label = Wirgen.pattern_to_string p;
    blocks;
    owner = Array.of_list (List.concat (List.rev !owner));
    programs;
    working_set = Acfc_replacement.Trace.working_set_size blocks;
    hash;
  }

let capacities tr = [ Stdlib.max 1 (tr.working_set / 3); tr.working_set ]

let cache_allocs = [ Config.Global_lru; Config.Lru_sp; Config.Clock_sp ]

let policy_name (module P : Policy_sim.POLICY) = P.name

let policy_replay ~seed ~refs ~wirgen_s =
  let traces = List.map (make_trace ~seed ~refs ~wirgen_s) Wirgen.patterns in
  let units =
    List.concat_map
      (fun tr ->
        List.concat_map
          (fun capacity ->
            let input what =
              Digest.to_hex (Digest.string (Printf.sprintf "%s|%s|%d" tr.hash what capacity))
            in
            List.map
              (fun policy ->
                let name = policy_name policy in
                {
                  id = Printf.sprintf "%s:%s:cap%d" tr.label name capacity;
                  kind = Policy_pass { policy; capacity; trace = tr };
                  input = input name;
                  golden = None;
                })
              Policies.all
            @ List.map
                (fun alloc ->
                  let name = "cache-" ^ Config.alloc_policy_to_string alloc in
                  {
                    id = Printf.sprintf "%s:%s:cap%d" tr.label name capacity;
                    kind = Cache_pass { alloc; capacity; trace = tr };
                    input = input name;
                    golden = None;
                  })
                cache_allocs)
          (capacities tr))
      traces
  in
  (units, traces)

let setup ~root ~seed w =
  let parse = ref 0.0 and wirgen_s = ref 0.0 in
  let units, traces =
    match w with
    | Paper_read -> (paper_read ~root ~seed ~parse, [])
    | Paper_write -> (paper_write ~root ~seed ~parse, [])
    | Fleet_w -> (fleet ~root ~seed ~parse, [])
    | Policy_replay -> policy_replay ~seed ~refs:replay_refs ~wirgen_s
  in
  { units; traces; parse_s = !parse; wirgen_s = !wirgen_s }

(* {2 Execution} *)

(* A replay pass through the kernel cache: programs with an even index
   run oblivious under pid 0; odd ones run under pid 1, a registered
   manager that asks for MRU on its files, so LRU-SP and CLOCK-SP
   consult it, swap and leave placeholders. *)
let cache_replay ~alloc ~capacity tr =
  let cache = Cache.create (Config.make ~alloc_policy:alloc ~capacity_blocks:capacity ()) in
  let manager = Pid.make 1 in
  (match Cache.register_manager cache manager with
  | Ok () -> ignore (Cache.set_policy cache manager ~prio:0 Acfc_core.Policy.Mru)
  | Error _ -> ());
  let pids = [| Pid.make 0; manager |] in
  Array.iter
    (fun b -> ignore (Cache.read cache ~pid:pids.(tr.owner.(Block.file b) land 1) b))
    tr.blocks;
  cache

type raw =
  | Scenario_result of Runner.t
  | Fleet_result of Fleet.report
  | Policy_result of Policy_sim.result
  | Cache_result of Cache.t

(* The timed loop runs fleets on the calling domain: at jobs 2 every
   epoch barrier waits for the other core, and on a shared 2-core host
   that wait swings a unit's time by up to 5x. The traced run times
   jobs 2 against jobs 1. *)
let fleet_jobs = 1

(* The timed call. *)
let execute u =
  match u.kind with
  | Run { scn; _ } -> Scenario_result (Scenario.run scn)
  | Fleet_run { scn; _ } -> Fleet_result (Fleet.run ~jobs:fleet_jobs scn)
  | Policy_pass { policy; capacity; trace } ->
    Policy_result (Policy_sim.run policy ~capacity trace.blocks)
  | Cache_pass { alloc; capacity; trace } -> Cache_result (cache_replay ~alloc ~capacity trace)

(* Simulated block references a result accounts for. *)
let refs = function
  | Scenario_result r -> r.Runner.cache_hits + r.Runner.cache_misses
  | Fleet_result r ->
    Array.fold_left
      (fun a c -> a + c.Fleet.local_hits + c.Fleet.local_misses)
      0 r.Fleet.client_stats
  | Policy_result r -> r.Policy_sim.references
  | Cache_result c -> Cache.hits c + Cache.misses c

(* The output a user of the system would see: what [acfc-run
   scenario] prints for a scenario, [Fleet.to_string] for a fleet,
   [Policy_sim.pp_result] for a replay. *)
let render = function
  | Scenario_result r ->
    Format.asprintf "%a" Runner.pp r
    ^ Format.asprintf "cache: %d hits, %d misses; %d overrules, %d placeholders (%d used)@."
        r.Runner.cache_hits r.Runner.cache_misses r.Runner.overrules
        r.Runner.placeholders_created r.Runner.placeholders_used
  | Fleet_result r -> Fleet.to_string r
  | Policy_result r -> Format.asprintf "%a@." Policy_sim.pp_result r
  | Cache_result c ->
    Printf.sprintf
      "cache cap=%d hits=%d misses=%d evictions=%d overrules=%d placeholders=%d (%d used)\n"
      (Cache.capacity c) (Cache.hits c) (Cache.misses c) (Cache.evictions c)
      (Cache.overrule_count c) (Cache.placeholders_created c) (Cache.placeholders_used c)
