(* The traced run: for each unit, time calls into each layer's public
   functions, outside in, each as its own span.

   - L0: [Wir.references] on each workload program, with the RNG
     [Scenario.workload_rngs] hands it (the interpreter alone);
   - L1: the workloads' combined stream through [Cache.read] on a fresh
     cache with the unit's config (the cache core alone);
   - L2: the same streams issued as [Fs.read], one fiber per workload,
     on a machine from [Scenario.build] (Fs, cache, disk/bus, engine);
   - L3: the whole [Scenario.run].

   Fleet units time [Fleet.run] at jobs 2 and jobs 1; replay units time
   each [Policy_sim.run] or [Cache.read] pass. Sampled units also make
   the same untraced call the end-to-end run makes, so the ratio of the
   two is the tracing overhead. Sums go to an accumulator from which
   {!metrics} derives the per-layer metrics. *)

module Scenario = Units.Scenario
module Wir = Units.Wir
module Block = Units.Block
module Cache = Units.Cache
module Pid = Units.Pid
module Runner = Units.Runner
module Fleet = Units.Fleet
module Fs = Acfc_fs.Fs
module Engine = Acfc_sim.Engine
module Json = Acfc_obs.Json
module Sink = Acfc_obs.Sink

type acc = (string, float) Hashtbl.t

let create_acc () : acc = Hashtbl.create 64

let get (acc : acc) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)

let add (acc : acc) k v = Hashtbl.replace acc k (get acc k +. v)

let addi acc k v = add acc k (float_of_int v)

(* Run [f] as span [name] and charge its time, minor words and [refs]
   to the layer [key]. *)
let layer spans acc ~unit_id ~key ~refs name f =
  let v = Spans.with_span spans ~unit_id name f in
  let s = Spans.last spans in
  add acc (key ^ ".s") (Spans.duration s);
  add acc (key ^ ".words") s.Spans.words;
  addi acc (key ^ ".refs") refs;
  v

(* On sampled units, the same call the untraced run times, so that
   [traced.s / untraced.s - 1] is the overhead of the ladder's spans.
   Sampling keeps the duplicate calls a small share of the trace. *)
let untraced spans acc ~unit_id ~sample u =
  if sample then begin
    let raw = Spans.with_span spans ~unit_id "untraced" (fun () -> Units.execute u) in
    add acc "untraced.s" (Spans.duration (Spans.last spans));
    Some raw
  end
  else None

(* Called right after the ladder's own call of the unit: on a sampled
   unit, charge that call's span to [traced.s] and check the untraced
   twin's result; otherwise check the ladder call's result. *)
let checked spans acc pre raw =
  match pre with
  | Some r ->
    add acc "traced.s" (Spans.duration (Spans.last spans));
    r
  | None -> raw

let total streams = Array.fold_left (fun a s -> a + Array.length s) 0 streams

let l0 spans acc ~unit_id scn programs streams =
  List.concat
    (List.mapi
       (fun i rng ->
         let s =
           layer spans acc ~unit_id ~key:"wir" ~refs:(Array.length streams.(i)) "L0.wir"
             (fun () -> Wir.references ~rng programs.(i))
         in
         if s <> streams.(i) then [ "L0 stream differs from the set-up stream" ] else [])
       (Scenario.workload_rngs scn))

(* {2 L1: the combined stream}

   Workload [w]'s file slots are renumbered past those of the workloads
   before it and its references are issued under pid [w]; the streams
   are merged in proportion to their lengths, as concurrent workloads
   progress. *)
let combine programs streams =
  let n = Array.length streams in
  let offsets = Array.make n 0 in
  for w = 1 to n - 1 do
    offsets.(w) <- offsets.(w - 1) + Wir.file_count programs.(w - 1)
  done;
  let len = total streams in
  let pids = Array.make len 0 and blocks = Array.make len (Block.make ~file:0 ~index:0) in
  let pos = Array.make n 0 in
  for k = 0 to len - 1 do
    let best = ref (-1) and best_f = ref infinity in
    for w = 0 to n - 1 do
      let l = Array.length streams.(w) in
      if pos.(w) < l then begin
        let f = float_of_int (pos.(w) + 1) /. float_of_int l in
        if f < !best_f then begin
          best := w;
          best_f := f
        end
      end
    done;
    let w = !best in
    let b = streams.(w).(pos.(w)) in
    pids.(k) <- w;
    blocks.(k) <- Block.make ~file:(offsets.(w) + Block.file b) ~index:(Block.index b);
    pos.(w) <- pos.(w) + 1
  done;
  (pids, blocks)

let replay_combined config (pids, blocks) =
  let cache = Cache.create config in
  Array.iteri (fun k b -> ignore (Cache.read cache ~pid:(Pid.make pids.(k)) b)) blocks;
  cache

(* {2 L2: the streams through Fs} *)

let rec opens acc = function
  | Wir.Open { reserve_blocks; _ } -> reserve_blocks :: acc
  | Wir.Seq ops -> List.fold_left opens acc ops
  | _ -> acc

let slot_sizes (p : Wir.t) = Array.of_list (List.rev (List.fold_left opens [] p.Wir.ops))

let fs_replay scn programs streams =
  let m = Scenario.build scn in
  let bs = Acfc_disk.Params.block_bytes in
  List.iteri
    (fun w (wl : Scenario.workload) ->
      let pid = Pid.make w in
      let disk = m.Scenario.disk_array.(wl.Scenario.disk) in
      let files =
        Array.mapi
          (fun slot blocks ->
            Fs.create_file m.Scenario.fs ~owner:pid
              ~name:(Printf.sprintf "pb%d.%d" w slot)
              ~disk ~size_bytes:(blocks * bs) ())
          (slot_sizes programs.(w))
      in
      Engine.spawn m.Scenario.engine (fun () ->
          Array.iter
            (fun b ->
              Fs.read m.Scenario.fs ~pid files.(Block.file b) ~off:(Block.index b * bs) ~len:bs)
            streams.(w)))
    scn.Scenario.workloads;
  Engine.run m.Scenario.engine

(* {2 Per-kind ladders} *)

let gauges snapshot =
  match Json.member "gauges" snapshot with Some (Json.Obj members) -> members | _ -> []

(* Sum the [disk.<drive>.<field>] gauges of a metrics snapshot. *)
let disk_gauge snapshot field =
  List.fold_left
    (fun a (name, v) ->
      match (String.split_on_char '.' name, Json.to_num v) with
      | [ "disk"; _; f ], Some x when f = field -> a +. x
      | _ -> a)
    0.0 (gauges snapshot)

let count_runner acc (r : Runner.t) =
  addi acc "hr.hits" r.Runner.cache_hits;
  addi acc "hr.misses" r.Runner.cache_misses;
  addi acc "hr.overrules" r.Runner.overrules;
  addi acc "hr.ph_created" r.Runner.placeholders_created;
  addi acc "hr.ph_used" r.Runner.placeholders_used;
  addi acc "disk.reads" (List.fold_left (fun a x -> a + x.Runner.disk_reads) 0 r.Runner.apps);
  addi acc "disk.writes" (List.fold_left (fun a x -> a + x.Runner.disk_writes) 0 r.Runner.apps);
  addi acc "sim.events" r.Runner.engine_events

let count_cache acc c =
  addi acc "hr.hits" (Cache.hits c);
  addi acc "hr.misses" (Cache.misses c);
  addi acc "hr.overrules" (Cache.overrule_count c);
  addi acc "hr.ph_created" (Cache.placeholders_created c);
  addi acc "hr.ph_used" (Cache.placeholders_used c)

let run_ladder spans acc ~unit_id ~sample u scn programs streams =
  let pre = untraced spans acc ~unit_id ~sample u in
  let demand = total streams in
  let problems = l0 spans acc ~unit_id scn programs streams in
  let combined = combine programs streams in
  let cache =
    layer spans acc ~unit_id ~key:"core" ~refs:demand "L1.core" (fun () ->
        replay_combined scn.Scenario.config combined)
  in
  addi acc "core.evictions" (Cache.evictions cache);
  layer spans acc ~unit_id ~key:"fs" ~refs:demand "L2.fs" (fun () ->
      fs_replay scn programs streams);
  let r =
    layer spans acc ~unit_id ~key:"scenario" ~refs:demand "L3.scenario" (fun () ->
        Scenario.run scn)
  in
  let raw = checked spans acc pre (Units.Scenario_result r) in
  addi acc "l3.refs" demand;
  count_runner acc r;
  (* Disk queueing comes from the disk gauges, read through a Null
     sink on a separate run so that the timed L3 stays uninstrumented. *)
  let sink = Sink.create ~backend:Sink.Null () in
  let r_obs = Spans.with_span spans ~unit_id "L3.obs" (fun () -> Scenario.run ~obs:sink scn) in
  let snap = Acfc_obs.Metrics.snapshot (Sink.metrics sink) ~now:(Sink.now sink) in
  add acc "disk.wait_s" (disk_gauge snap "wait_s");
  add acc "disk.ios" (disk_gauge snap "reads" +. disk_gauge snap "writes");
  let text = Units.render raw in
  let agree =
    (if Units.render (Units.Scenario_result r) <> text then
       [ "L3 run differs from the untraced run" ]
     else [])
    @
    if Units.render (Units.Scenario_result r_obs) <> text then
      [ "observed run differs from the untraced run" ]
    else []
  in
  (raw, problems @ agree)

let fleet_ladder spans acc ~unit_id ~sample u scn programs streams =
  let pre = untraced spans acc ~unit_id ~sample u in
  let problems = l0 spans acc ~unit_id scn programs streams in
  let r1 =
    layer spans acc ~unit_id ~key:"fleet1" ~refs:0 "fleet.jobs1" (fun () ->
        Fleet.run ~jobs:1 scn)
  in
  let raw = checked spans acc pre (Units.Fleet_result r1) in
  let r2 =
    layer spans acc ~unit_id ~key:"fleet2" ~refs:0 "fleet.jobs2" (fun () ->
        Fleet.run ~jobs:2 scn)
  in
  addi acc "fleet.units" 1;
  addi acc "fleet.epochs" r2.Fleet.epochs;
  addi acc "fleet.events" r2.Fleet.events;
  addi acc "l3.refs" (Units.refs (Units.Fleet_result r2));
  addi acc "sim.events" r2.Fleet.events;
  let clients = Array.to_list r2.Fleet.client_stats in
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  addi acc "hr.hits" (sum (fun c -> c.Fleet.local_hits));
  addi acc "hr.misses" (sum (fun c -> c.Fleet.local_misses));
  addi acc "disk.reads" (sum (fun c -> c.Fleet.local_disk_reads));
  add acc "disk.wait_s" r2.Fleet.server_wait_s;
  addi acc "disk.ios" (r2.Fleet.server_requests - r2.Fleet.server_hits);
  let agree =
    if Fleet.to_string r1 <> Fleet.to_string r2 then
      [ "fleet report differs between jobs 1 and jobs 2" ]
    else []
  in
  (raw, problems @ agree)

let policy_key policy = "policy." ^ String.lowercase_ascii (Units.policy_name policy)

(* One unit's ladder inside a "unit" span; returns the raw result to
   check and the ladder's own problems. *)
let unit_ladder spans acc ~sample (u : Units.t) =
  let unit_id = u.Units.id in
  Spans.with_span spans ~unit_id "unit" (fun () ->
      match u.Units.kind with
      | Units.Run { scn; programs; streams } ->
        run_ladder spans acc ~unit_id ~sample u scn programs streams
      | Units.Fleet_run { scn; programs; streams } ->
        fleet_ladder spans acc ~unit_id ~sample u scn programs streams
      | Units.Policy_pass { policy; capacity; trace } ->
        let pre = untraced spans acc ~unit_id ~sample u in
        let key = policy_key policy in
        let r =
          layer spans acc ~unit_id ~key ~refs:(Array.length trace.Units.blocks) key (fun () ->
              Acfc_replacement.Policy_sim.run policy ~capacity trace.Units.blocks)
        in
        (checked spans acc pre (Units.Policy_result r), [])
      | Units.Cache_pass { alloc; capacity; trace } ->
        let pre = untraced spans acc ~unit_id ~sample u in
        let c =
          layer spans acc ~unit_id ~key:"core" ~refs:(Array.length trace.Units.blocks) "L1.core"
            (fun () -> Units.cache_replay ~alloc ~capacity trace)
        in
        let raw = checked spans acc pre (Units.Cache_result c) in
        addi acc "core.evictions" (Cache.evictions c);
        count_cache acc c;
        (raw, []))

(* L0 for a replay trace: re-extract its programs' demand streams. *)
let trace_l0 spans acc (tr : Units.trace) =
  List.iter
    (fun (prog, pseed) ->
      let s =
        layer spans acc ~unit_id:("trace:" ^ tr.Units.label) ~key:"wir" ~refs:0 "L0.wir"
          (fun () -> Wir.references ~rng:(Acfc_sim.Rng.create pseed) prog)
      in
      addi acc "wir.refs" (Array.length s))
    tr.Units.programs

(* {2 Per-layer metrics} *)

let policies =
  List.map (fun p -> String.lowercase_ascii (Units.policy_name p)) Acfc_replacement.Policies.all

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every per-layer metric as (name, unit, value); a metric whose layer
   the workload does not run reads 0. *)
let metrics acc ~(setup : Units.setup) ~major_collections =
  let g = get acc in
  let ns key = ratio (1e9 *. g (key ^ ".s")) (g (key ^ ".refs")) in
  let words key = ratio (g (key ^ ".words")) (g (key ^ ".refs")) in
  List.concat
    [
      [
        ("wir.ns_per_ref", "ns/ref", ns "wir");
        ("wir.words_per_ref", "words/ref", words "wir");
        ("wirgen.generate_s", "s", setup.Units.wirgen_s);
        ("core.ns_per_ref", "ns/ref", ns "core");
        ("core.words_per_ref", "words/ref", words "core");
        ("core.evictions_per_ref", "evictions/ref", ratio (g "core.evictions") (g "core.refs"));
        ("core.hit_ratio", "ratio", ratio (g "hr.hits") (g "hr.hits" +. g "hr.misses"));
        ("core.overrules_per_miss", "overrules/miss", ratio (g "hr.overrules") (g "hr.misses"));
        ("core.placeholders_used_ratio", "ratio", ratio (g "hr.ph_used") (g "hr.ph_created"));
      ];
      List.concat_map
        (fun p ->
          let key = "policy." ^ p in
          [
            (key ^ ".ns_per_ref", "ns/ref", ns key);
            (key ^ ".words_per_ref", "words/ref", words key);
          ])
        policies;
      [
        ("fs.ns_per_ref", "ns/ref", ns "fs");
        ( "fs.self_ns_per_ref",
          "ns/ref",
          if g "fs.refs" = 0.0 then 0.0
          else ratio (1e9 *. (g "fs.s" -. g "core.s")) (g "fs.refs") );
        ("fs.words_per_ref", "words/ref", words "fs");
        ("disk.reads_per_ref", "reads/ref", ratio (g "disk.reads") (g "l3.refs"));
        ("disk.writes_per_ref", "writes/ref", ratio (g "disk.writes") (g "l3.refs"));
        ("disk.sim_wait_s_per_io", "s/io", ratio (g "disk.wait_s") (g "disk.ios"));
        ("sim.events_per_ref", "events/ref", ratio (g "sim.events") (g "l3.refs"));
        ("scenario.ns_per_ref", "ns/ref", ns "scenario");
        ( "scenario.residual_ns_per_ref",
          "ns/ref",
          if g "scenario.refs" = 0.0 then 0.0
          else
            ratio (1e9 *. (g "scenario.s" -. g "fs.s" -. g "wir.s")) (g "scenario.refs") );
        ("scenario.words_per_ref", "words/ref", words "scenario");
        ("scenario.parse_s", "s", setup.Units.parse_s);
        ("fleet.epochs", "count", ratio (g "fleet.epochs") (g "fleet.units"));
        ("fleet.events_per_epoch", "events/epoch", ratio (g "fleet.events") (g "fleet.epochs"));
        ("fleet.ns_per_epoch", "ns/epoch", ratio (1e9 *. g "fleet2.s") (g "fleet.epochs"));
        ("fleet.speedup_vs_jobs1", "ratio", ratio (g "fleet1.s") (g "fleet2.s"));
        ("gc.major_collections", "count", float_of_int major_collections);
        ( "trace.overhead_ratio",
          "ratio",
          if g "untraced.s" = 0.0 then 0.0 else (g "traced.s" /. g "untraced.s") -. 1.0 );
      ];
    ]
