open Acfc_sim
module Config = Acfc_core.Config
module Control = Acfc_core.Control
module Pid = Acfc_core.Pid
module Cache = Acfc_core.Cache
module Bus = Acfc_disk.Bus
module Disk = Acfc_disk.Disk
module Params = Acfc_disk.Params
module App = Acfc_workload.App
module Env = Acfc_wir.Env
module Runner = Acfc_workload.Runner
module Spec = Runner.Spec
module Codec = Acfc_obs.Codec
module Wir = Acfc_wir.Wir

type disk = { params : Params.t; sched : Disk.sched }

type source = Named of string | Inline of Wir.t

type workload = {
  app : source;
  smart : bool;
  disk : int;
  file_blocks : int option;
  manager : string option;
      (* registry name of a replacement policy run as this workload's
         live manager; None = kernel replacement (+ the app's own
         Advise calls when smart) *)
}

type obs_spec = { trace_path : string option; metrics_path : string option }

type link = { latency_ms : float; bandwidth_mb_per_s : float }

type fleet_server = { server_cache_blocks : int; server_drive : Params.t }

type fleet = {
  clients : int;
  shared_files : int;
  server : fleet_server;
  net : link;
  links : (int * link) list;
  lookahead_ms : float option;
}

type t = {
  seed : int;
  config : Config.t;
  update_interval : float;
  hit_cost : float option;
  io_cpu_cost : float option;
  write_cluster : int option;
  readahead : bool option;
  scattered_layout : bool;
  disks : disk list;
  workloads : workload list;
  fleet : fleet option;
  obs : obs_spec;
}

let default_disks =
  [ { params = Params.rz56; sched = Disk.Fcfs }; { params = Params.rz26; sched = Disk.Fcfs } ]

let no_obs = { trace_path = None; metrics_path = None }

let blocks_of_mb = Runner.blocks_of_mb

let ( let* ) = Result.bind

(* Semantic checks shared by the constructors and the JSON parser.
   [Error (sub, msg)] carries the field sub-path relative to the value
   checked, so the parser can turn it into a [$.path] diagnostic. *)
let ensure sub ok msg = if ok then Ok () else Error (sub, msg)

(* Saturating sum of block counts, so no capacity or reserve wraps it. *)
let add_blocks a b = if a > max_int - b then max_int else a + b

(* Shared by the constructors (invalid_arg) and the JSON parser ($.path
   error, hence the sub-paths): a workload names a catalog application
   or carries an inline program, never both; [smart] and [disk] default
   to the catalog's choices; a manager must name a registered policy
   that can run without the future stream, and the registry's own
   message (valid names, near-match suggestion) is kept verbatim. *)
let resolve_workload app program smart disk manager file_blocks =
  let* () =
    ensure ".file_blocks"
      (Option.fold ~none:true ~some:(fun n -> n >= 1) file_blocks)
      "file_blocks must be >= 1"
  in
  let* app, smart_default, disk_default =
    match (app, program) with
    | Some _, Some _ -> Error ("", {|pass "app" or "program", not both|})
    | None, None -> Error ("", {|missing required field "app" or "program"|})
    | Some name, None ->
      (match Catalog.resolve ?file_blocks name with
      | Ok e -> Ok (Named name, e.Catalog.smart_default, e.Catalog.disk)
      | Error msg -> Error (".app", msg))
    | None, Some p ->
      if file_blocks = None then Ok (Inline p, true, 0)
      else Error (".program", "an inline program does not take file_blocks")
  in
  let* () =
    match Option.map Acfc_policy.Registry.find manager with
    | None -> Ok ()
    | Some (Error msg) -> Error (".manager", msg)
    | Some (Ok entry) ->
      if Acfc_policy.Registry.needs_future entry then
        Error
          ( ".manager",
            Printf.sprintf
              "policy %S needs the future reference stream and cannot run as a live \
               manager"
              (Acfc_policy.Registry.name entry) )
      else Ok ()
  in
  Ok
    {
      app;
      smart = Option.value smart ~default:smart_default;
      disk = Option.value disk ~default:disk_default;
      file_blocks;
      manager;
    }

let workload ?smart ?disk ?file_blocks ?manager app =
  match resolve_workload (Some app) None smart disk manager file_blocks with
  | Ok w -> w
  | Error (_, msg) -> invalid_arg ("Scenario.workload: " ^ msg)

let inline_workload ?(smart = true) ?(disk = 0) ?manager program =
  (match Wir.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.inline_workload: " ^ msg));
  match resolve_workload None (Some program) (Some smart) (Some disk) manager None with
  | Ok w -> w
  | Error (_, msg) -> invalid_arg ("Scenario.inline_workload: " ^ msg)

(* {2 Fleet} *)

let client_link f c =
  match List.assoc_opt c f.links with Some l -> l | None -> f.net

let fleet_min_latency_ms f =
  let m = ref Float.infinity in
  for c = 0 to f.clients - 1 do
    let l = (client_link f c).latency_ms in
    if l < !m then m := l
  done;
  !m

let fleet_lookahead_ms f =
  match f.lookahead_ms with
  | Some la -> la
  | None -> 2.0 *. fleet_min_latency_ms f

let within sub = Result.map_error (fun (s, msg) -> (sub ^ s, msg))

let all_indexed f l =
  let rec go i = function
    | [] -> Ok ()
    | x :: rest -> Result.bind (f i x) (fun () -> go (i + 1) rest)
  in
  go 0 l

(* Drive parameters a run can use: a capacity or a transfer rate that
   is not positive, or a negative or non-finite time, would make the
   disk model raise mid-run; an infinite rate has no JSON form. *)
let drive_check (p : Params.t) =
  let* () = ensure ".capacity_blocks" (p.capacity_blocks >= 1) "capacity_blocks must be >= 1" in
  let* () =
    ensure ".transfer_mb_per_s"
      (Float.is_finite p.transfer_mb_per_s && p.transfer_mb_per_s > 0.0)
      "transfer_mb_per_s must be finite and > 0"
  in
  all_indexed
    (fun _ (name, x) ->
      ensure ("." ^ name) (Float.is_finite x && x >= 0.0) (name ^ " must be finite and >= 0"))
    [
      ("min_seek_ms", p.min_seek_ms); ("avg_seek_ms", p.avg_seek_ms);
      ("max_seek_ms", p.max_seek_ms); ("avg_rot_ms", p.avg_rot_ms);
      ("overhead_ms", p.overhead_ms); ("seq_rot_factor", p.seq_rot_factor);
    ]

(* The shortest period a periodic process may run at, about one disk
   service time. Each update-daemon tick costs a sync and each monitor
   tick a snapshot, so a tiny period spends the run at time 0: an
   update interval of 1e-300 s never finished. *)
let min_period_s = 0.01

let period_ok x = Float.is_finite x && x >= min_period_s

let period_msg what = Printf.sprintf "%s must be finite and >= %g" what min_period_s

(* The machine knobs outside the cache config, at their document
   sub-paths. An update interval below the period floor never lets a
   run finish; the other values would raise mid-run or be silently
   ignored. *)
let machine_check ~update_interval ~hit_cost ~io_cpu_cost ~write_cluster drives =
  let cost name x =
    ensure (".cpu." ^ name)
      (Option.fold ~none:true ~some:(fun x -> Float.is_finite x && x >= 0.0) x)
      (name ^ " must be finite and >= 0")
  in
  let* () = cost "hit_cost" hit_cost in
  let* () = cost "io_cpu_cost" io_cpu_cost in
  let* () =
    ensure ".fs.write_cluster"
      (Option.fold ~none:true ~some:(fun n -> n >= 1) write_cluster)
      "write_cluster must be >= 1"
  in
  let* () =
    ensure ".fs.update_interval_s" (period_ok update_interval)
      (period_msg "update_interval_s")
  in
  all_indexed (fun i p -> within (Printf.sprintf ".disks[%d].drive" i) (drive_check p)) drives

let check_link_values sub l =
  let* () =
    ensure (sub ^ ".latency_ms")
      (Float.is_finite l.latency_ms && l.latency_ms > 0.0)
      "latency_ms must be > 0"
  in
  ensure (sub ^ ".bandwidth_mb_per_s")
    (Float.is_finite l.bandwidth_mb_per_s && l.bandwidth_mb_per_s > 0.0)
    "bandwidth_mb_per_s must be > 0"

let fleet_check f =
  let* () = ensure ".clients" (f.clients >= 1) "clients must be >= 1" in
  let* () = ensure ".shared_files" (f.shared_files >= 0) "shared_files must be >= 0" in
  let* () =
    ensure ".server.cache_blocks" (f.server.server_cache_blocks >= 1)
      "cache_blocks must be >= 1"
  in
  let* () = within ".server.drive" (drive_check f.server.server_drive) in
  let* () =
    let drive = f.server.server_drive.Params.capacity_blocks in
    ensure ".server.cache_blocks" (f.server.server_cache_blocks <= drive)
      (Printf.sprintf "cache_blocks %d exceeds the server drive's %d blocks"
         f.server.server_cache_blocks drive)
  in
  let* () = check_link_values ".network" f.net in
  let* () =
    all_indexed
      (fun i (c, l) ->
        let sub = Printf.sprintf ".links[%d]" i in
        let* () =
          ensure (sub ^ ".client") (c >= 0 && c < f.clients)
            (Printf.sprintf "client index %d out of range (%d client%s)" c f.clients
               (if f.clients = 1 then "" else "s"))
        in
        let* () =
          ensure (sub ^ ".client")
            (List.length (List.filter (fun (c', _) -> c' = c) f.links) = 1)
            (Printf.sprintf "duplicate link for client %d" c)
        in
        check_link_values sub l)
      f.links
  in
  match f.lookahead_ms with
  | None -> Ok ()
  | Some la ->
    let bound = 2.0 *. fleet_min_latency_ms f in
    if not (Float.is_finite la && la > 0.0) then
      Error (".lookahead_ms", "lookahead_ms must be > 0")
    else if la > bound then
      Error
        ( ".lookahead_ms",
          Printf.sprintf
            "lookahead_ms %g exceeds the conservative bound %g (twice the minimum \
             link latency)"
            la bound )
    else Ok ()

(* A workload's IR program; [None] for an application that is not one,
   whose files are not known here. *)
let program w =
  match w.app with
  | Inline p -> Some p
  | Named name ->
    (match Catalog.resolve ?file_blocks:w.file_blocks name with
    | Ok e -> App.program e.Catalog.app
    | Error _ -> None)

(* The file slots the workloads' programs open, which a fleet lays out
   side by side; [shared_files] names a prefix of them. A workload that
   is not an IR program opens none here (a fleet cannot run it). *)
let file_slots workloads =
  List.fold_left
    (fun n w -> n + Option.fold ~none:0 ~some:Wir.file_count (program w))
    0 workloads

(* Every file a workload opens takes its reserve on the workload's disk,
   and a scattered layout first skips a random gap of up to
   capacity/100 - 1 blocks ([Fs.create_file]), which needs a drive of
   at least 100 blocks. The worst case must fit each drive, or the run
   dies with "disk full" mid-way. Errors name the workload whose files
   first overflow. *)
let disk_space_check ~scattered_layout disks workloads =
  let capacity =
    Array.of_list (List.map (fun d -> d.params.Params.capacity_blocks) disks)
  in
  let used = Array.make (Array.length capacity) 0 in
  all_indexed
    (fun i w ->
      let cap = capacity.(w.disk) and sub = Printf.sprintf ".workloads[%d]" i in
      let reserves = Option.fold ~none:[] ~some:Wir.reserves (program w) in
      let* () =
        ensure sub
          ((not scattered_layout) || reserves = [] || cap >= 100)
          (Printf.sprintf
             "scattered_layout needs at least 100 blocks on disk %d, which holds %d" w.disk
             cap)
      in
      let gap = if scattered_layout then (cap / 100) - 1 else 0 in
      List.iter
        (fun r -> used.(w.disk) <- add_blocks (add_blocks used.(w.disk) gap) r)
        reserves;
      ensure sub (used.(w.disk) <= cap)
        (Printf.sprintf "the files opened on disk %d need %d blocks%s, more than its %d"
           w.disk used.(w.disk)
           (if scattered_layout then " with worst-case scattered gaps" else "")
           cap))
    workloads

(* Every cache pre-sizes its tables to its capacity, so one larger
   than the drives it fronts holds nothing more, and a huge one runs
   out of memory before the first reference. A machine's cache, and
   each fleet client's, fronts the scenario's drives plus, in a fleet,
   the server's; the server cache ([fleet_check]) fronts the server
   drive. *)
let cache_size_check t =
  let drives =
    List.fold_left (fun n d -> add_blocks n d.params.Params.capacity_blocks) 0 t.disks
  in
  let drives, which =
    match t.fleet with
    | None -> (drives, "the scenario's drives")
    | Some f ->
      ( add_blocks drives f.server.server_drive.Params.capacity_blocks,
        "the scenario's drives and the server drive" )
  in
  let cap = t.config.Config.capacity_blocks in
  ensure ".cache.capacity_blocks" (cap <= drives)
    (Printf.sprintf "capacity_blocks %d exceeds the %d blocks of %s" cap drives which)

(* Everything [make] and the parser both reject, at document
   sub-paths. *)
let check t =
  let* () =
    ensure ".seed"
      (t.seed >= -Codec.int_limit && t.seed <= Codec.int_limit)
      "seed must be between -2^53 and 2^53"
  in
  let n_disks = List.length t.disks in
  let* () = ensure ".disks" (n_disks > 0) "disks must be non-empty" in
  let* () = ensure ".workloads" (t.workloads <> []) "workloads must be non-empty" in
  let* () =
    all_indexed
      (fun i w ->
        if w.disk >= 0 && w.disk < n_disks then Ok ()
        else
          Error
            ( Printf.sprintf ".workloads[%d].disk" i,
              Printf.sprintf "disk index %d out of range (%d disk%s)" w.disk n_disks
                (if n_disks = 1 then "" else "s") ))
      t.workloads
  in
  let* () =
    machine_check ~update_interval:t.update_interval ~hit_cost:t.hit_cost
      ~io_cpu_cost:t.io_cpu_cost ~write_cluster:t.write_cluster
      (List.map (fun d -> d.params) t.disks)
  in
  match t.fleet with
  | None ->
    let* () = disk_space_check ~scattered_layout:t.scattered_layout t.disks t.workloads in
    cache_size_check t
  | Some f ->
    let* () = within ".fleet" (fleet_check f) in
    let* () = cache_size_check t in
    let slots = file_slots t.workloads in
    ensure ".fleet.shared_files" (f.shared_files <= slots)
      (Printf.sprintf "shared_files %d exceeds the %d workload file slots" f.shared_files
         slots)

let fleet ?(shared_files = 0) ?(links = []) ?lookahead_ms ?(server_drive = Params.rz56)
    ~clients ~server_cache_blocks ~latency_ms ~bandwidth_mb_per_s () =
  let f =
    {
      clients;
      shared_files;
      server = { server_cache_blocks; server_drive };
      net = { latency_ms; bandwidth_mb_per_s };
      links;
      lookahead_ms;
    }
  in
  match fleet_check f with
  | Ok () -> f
  | Error (sub, msg) -> invalid_arg (Printf.sprintf "Scenario.fleet: %s: %s" sub msg)

let make ?(seed = 0) ?(disks = default_disks) ?disk_sched ?(update_interval = 30.0)
    ?hit_cost ?io_cpu_cost ?write_cluster ?readahead ?(scattered_layout = false)
    ?revocation ?shared_files ?config ?(obs = no_obs) ?cache_blocks ?alloc_policy
    ?fleet workloads =
  let config =
    match (config, cache_blocks) with
    | Some _, Some _ ->
      invalid_arg "Scenario.make: pass cache_blocks or config, not both"
    | Some c, None ->
      if revocation <> None || shared_files <> None || alloc_policy <> None then
        invalid_arg "Scenario.make: pass cache knobs or a full config, not both"
      else c
    | None, Some capacity_blocks ->
      Config.make ?alloc_policy ?revocation ?shared_files ~capacity_blocks ()
    | None, None -> invalid_arg "Scenario.make: cache_blocks (or config) is required"
  in
  let disks =
    match disk_sched with
    | None -> disks
    | Some sched -> List.map (fun d -> { d with sched }) disks
  in
  let t =
    {
      seed;
      config;
      update_interval;
      hit_cost;
      io_cpu_cost;
      write_cluster;
      readahead;
      scattered_layout;
      disks;
      workloads;
      fleet;
      obs;
    }
  in
  match check t with
  | Ok () -> t
  | Error (sub, msg) -> invalid_arg (Printf.sprintf "Scenario.make: %s at $%s" msg sub)

(* {2 Machine assembly}

   This is the historical [Runner.run] body, moved here wholesale. The
   order of every [Rng.split] and [Engine.spawn] is load-bearing: it is
   what keeps scenario-built runs bit-identical to the pre-scenario
   code (and to the golden snapshots). Do not reorder. *)

type machine = {
  engine : Engine.t;
  bus : Bus.t;
  disk_array : Disk.t array;
  cpu : Resource.t;
  fs : Acfc_fs.Fs.t;
  cache : Cache.t;
  rng : Rng.t;
}

let assemble ?obs ~seed ~disks ~update_interval:_ ~hit_cost ~io_cpu_cost
    ~write_cluster ~readahead ~scattered_layout ~config specs =
  if specs = [] then invalid_arg "Scenario.run: no applications";
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let bus = Bus.create engine () in
  let disk_array =
    Array.of_list
      (List.map
         (fun d -> Disk.create engine ~bus ~rng:(Rng.split rng) ~sched:d.sched d.params)
         disks)
  in
  List.iter
    (fun spec ->
      if spec.Spec.disk < 0 || spec.Spec.disk >= Array.length disk_array then
        invalid_arg "Scenario.run: disk index out of range")
    specs;
  let cpu = Resource.create engine ~name:"cpu" () in
  let layout = if scattered_layout then `Scattered (Rng.split rng) else `Packed in
  let fs =
    Acfc_fs.Fs.create engine ~config ~cpu ?hit_cost ?io_cpu_cost ?write_cluster
      ?readahead ~layout ()
  in
  let cache = Acfc_fs.Fs.cache fs in
  (* Thread the observability sink through every layer of the machine.
     The engine goes first: it points the sink's clock at virtual time,
     so all later events carry simulated timestamps. *)
  (match obs with
  | None -> ()
  | Some sink ->
    Engine.set_obs engine (Some sink);
    Cache.set_obs cache (Some sink);
    Acfc_fs.Fs.set_obs fs (Some sink);
    Bus.set_obs bus (Some sink);
    Array.iter (fun d -> Disk.set_obs d (Some sink)) disk_array;
    let m = Acfc_obs.Sink.metrics sink in
    List.iteri
      (fun i spec ->
        let pid = Pid.make i in
        let prefix = Printf.sprintf "app.%d.%s" i spec.Spec.app.App.name in
        Acfc_obs.Metrics.gauge m (prefix ^ ".hits") (fun () ->
            float_of_int (Cache.pid_hits cache pid));
        Acfc_obs.Metrics.gauge m (prefix ^ ".misses") (fun () ->
            float_of_int (Cache.pid_misses cache pid));
        Acfc_obs.Metrics.gauge m (prefix ^ ".hit_ratio") (fun () ->
            let h = Cache.pid_hits cache pid and m = Cache.pid_misses cache pid in
            if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m));
        Acfc_obs.Metrics.gauge m (prefix ^ ".block_ios") (fun () ->
            float_of_int (Acfc_fs.Fs.pid_block_ios fs pid)))
      specs);
  { engine; bus; disk_array; cpu; fs; cache; rng }

let run_assembled ?monitor machine ~update_interval specs =
  let { engine; disk_array; fs; cache; rng; _ } = machine in
  let stop_daemon = Acfc_fs.Fs.start_update_daemon fs ~interval:update_interval () in
  let finish_times = Array.make (List.length specs) 0.0 in
  let done_ivars =
    List.mapi
      (fun i spec ->
        let pid = Pid.make i in
        let control =
          if spec.Spec.smart || spec.Spec.manager <> None then
            match Control.attach cache pid with
            | Ok c -> Some c
            | Error e ->
              failwith
                ("Scenario: manager registration failed: " ^ Acfc_core.Error.to_string e)
          else None
        in
        (* A named manager installs the unified policy core as this
           pid's replacement plug-in; the app itself only sees a
           Control handle when it is smart. *)
        (match spec.Spec.manager with
        | None -> ()
        | Some pname ->
          let (module C : Acfc_policy.Policy_core.CORE) =
            match Acfc_policy.Registry.find pname with
            | Ok e -> e
            | Error msg -> failwith ("Scenario: " ^ msg)
          in
          let plugin =
            Acfc_policy.Live.plugin (module C)
              (C.create ~capacity:(Cache.capacity cache) ~future:[||])
          in
          (match Control.set_plugin (Option.get control) (Some plugin) with
          | Ok () -> ()
          | Error e ->
            failwith
              ("Scenario: manager plug-in install failed: "
              ^ Acfc_core.Error.to_string e)));
        let env =
          {
            Env.engine;
            fs;
            pid;
            control = (if spec.Spec.smart then control else None);
            cpu = Some machine.cpu;
            rng = Rng.split rng;
          }
        in
        let iv = Ivar.create engine in
        Engine.spawn engine ~name:spec.Spec.app.App.name (fun () ->
            App.run spec.Spec.app env ~disk:disk_array.(spec.Spec.disk);
            finish_times.(i) <- Engine.now engine;
            Ivar.fill iv ());
        iv)
      specs
  in
  (* The live-monitoring fiber follows the update daemon's pattern: a
     periodic loop the coordinator stops once the workloads are done.
     Only spawned when a monitor is attached, so unmonitored runs keep
     their exact event counts. *)
  let stop_monitor = ref (fun () -> ()) in
  (match monitor with
  | None -> ()
  | Some (p, metrics, every) ->
    let stopped = ref false in
    stop_monitor := (fun () -> stopped := true);
    Engine.spawn engine ~name:"monitor" (fun () ->
        while not !stopped do
          Engine.delay engine every;
          if not !stopped then
            Acfc_obs.Monitor.sample p ~metrics ~now:(Engine.now engine)
        done));
  Engine.spawn engine ~name:"coordinator" (fun () ->
      List.iter Ivar.read done_ivars;
      (* Flush what the applications left dirty so write I/Os are fully
         accounted, then let the update daemon exit. *)
      ignore (Acfc_fs.Fs.sync fs);
      stop_daemon ();
      !stop_monitor ());
  Engine.run engine;
  (match monitor with
  | None -> ()
  | Some (p, metrics, _) ->
    let now = Engine.now engine in
    Acfc_obs.Monitor.sample p ~metrics ~now;
    Acfc_obs.Monitor.finish p ~now);
  let apps =
    List.mapi
      (fun i spec ->
        let pid = Pid.make i in
        {
          Runner.app_name = spec.Spec.app.App.name;
          pid;
          elapsed = finish_times.(i);
          disk_reads = Acfc_fs.Fs.pid_disk_reads fs pid;
          disk_writes = Acfc_fs.Fs.pid_disk_writes fs pid;
          block_ios = Acfc_fs.Fs.pid_block_ios fs pid;
          cache_hits = Cache.pid_hits cache pid;
          cache_misses = Cache.pid_misses cache pid;
        })
      specs
  in
  {
    Runner.apps;
    makespan = Array.fold_left Float.max 0.0 finish_times;
    total_ios = Acfc_fs.Fs.total_block_ios fs;
    cache_hits = Cache.hits cache;
    cache_misses = Cache.misses cache;
    overrules = Cache.overrule_count cache;
    placeholders_created = Cache.placeholders_created cache;
    placeholders_used = Cache.placeholders_used cache;
    engine_events = Engine.events_processed engine;
  }

(* Pair a CLI-facing [?monitor:(producer, every)] with the sink's
   metrics registry; a monitor without a sink has nothing to sample,
   and one below the period floor would never let the run finish. *)
let monitor_with_metrics ~who monitor obs =
  match (monitor, obs) with
  | None, _ -> None
  | Some (_, every), _ when not (period_ok every) ->
    invalid_arg (Printf.sprintf "%s: %s" who (period_msg "the monitor period"))
  | Some (p, every), Some sink -> Some (p, Acfc_obs.Sink.metrics sink, every)
  | Some _, None ->
    invalid_arg (who ^ ": a monitor needs an observability sink (obs)")

let run_specs ?(seed = 0) ?disks ?disk_sched ?(update_interval = 30.0) ?hit_cost
    ?io_cpu_cost ?write_cluster ?readahead ?(scattered_layout = false) ?revocation
    ?shared_files ?obs ?monitor ~cache_blocks ~alloc_policy specs =
  let disks =
    match disks with
    | None -> default_disks
    | Some params -> List.map (fun p -> { params = p; sched = Disk.Fcfs }) params
  in
  let disks =
    match disk_sched with
    | None -> disks
    | Some sched -> List.map (fun d -> { d with sched }) disks
  in
  (match
     machine_check ~update_interval ~hit_cost ~io_cpu_cost ~write_cluster
       (List.map (fun d -> d.params) disks)
   with
  | Ok () -> ()
  | Error (sub, msg) -> invalid_arg (Printf.sprintf "Scenario.run_specs: %s at $%s" msg sub));
  let config =
    Config.make ~alloc_policy ?revocation ?shared_files ~capacity_blocks:cache_blocks ()
  in
  let machine =
    assemble ?obs ~seed ~disks ~update_interval ~hit_cost ~io_cpu_cost
      ~write_cluster ~readahead ~scattered_layout ~config specs
  in
  run_assembled
    ?monitor:(monitor_with_metrics ~who:"Scenario.run_specs" monitor obs)
    machine ~update_interval specs

let spec_of_workload w =
  match w.app with
  | Inline program ->
    Spec.make ~smart:w.smart ~disk:w.disk ?manager:w.manager (App.of_program program)
  | Named name ->
    (match Catalog.resolve ?file_blocks:w.file_blocks name with
    | Ok entry ->
      Spec.make ~smart:w.smart ~disk:w.disk ?manager:w.manager entry.Catalog.app
    | Error msg -> failwith ("Scenario: " ^ msg))

let inline_workloads t =
  let inline w =
    match w.app with
    | Inline _ -> w
    | Named name ->
      (match Catalog.resolve ?file_blocks:w.file_blocks name with
      | Error msg -> failwith ("Scenario: " ^ msg)
      | Ok entry ->
        (match App.program entry.Catalog.app with
        | Some program -> { w with app = Inline program; file_blocks = None }
        | None ->
          failwith (Printf.sprintf "Scenario: application %S is not an IR program" name)))
  in
  { t with workloads = List.map inline t.workloads }

(* Reproduce the private RNG each workload fiber receives, without
   assembling a machine: the same create/split order as [assemble]
   (one split per disk, one for a scattered layout) followed by
   [run_assembled]'s per-workload splits. Keep in lockstep with both —
   this is what lets [Wir.references] fast-forward a live run's
   stochastic demand stream. *)
let workload_rngs t =
  let rng = Rng.create t.seed in
  List.iter (fun _ -> ignore (Rng.split rng)) t.disks;
  if t.scattered_layout then ignore (Rng.split rng);
  List.map (fun _ -> Rng.split rng) t.workloads

let build ?obs t =
  let specs = List.map spec_of_workload t.workloads in
  assemble ?obs ~seed:t.seed ~disks:t.disks ~update_interval:t.update_interval
    ~hit_cost:t.hit_cost ~io_cpu_cost:t.io_cpu_cost ~write_cluster:t.write_cluster
    ~readahead:t.readahead ~scattered_layout:t.scattered_layout ~config:t.config specs

let run ?obs ?monitor t =
  let specs = List.map spec_of_workload t.workloads in
  let machine =
    assemble ?obs ~seed:t.seed ~disks:t.disks
      ~update_interval:t.update_interval ~hit_cost:t.hit_cost
      ~io_cpu_cost:t.io_cpu_cost ~write_cluster:t.write_cluster
      ~readahead:t.readahead ~scattered_layout:t.scattered_layout ~config:t.config
      specs
  in
  run_assembled
    ?monitor:(monitor_with_metrics ~who:"Scenario.run" monitor obs)
    machine ~update_interval:t.update_interval specs

(* {2 Serialisation} *)

let drive =
  let open Codec in
  named ~what:"drive" ~expected:"rz56, rz26 or a parameter object"
    [ ("rz56", Params.rz56); ("rz26", Params.rz26) ]
    (seal ~expected:"a drive name or parameter object"
       (obj
          (fun name capacity_blocks min_seek_ms avg_seek_ms max_seek_ms avg_rot_ms
               transfer_mb_per_s overhead_ms seq_rot_factor ->
            {
              Params.name;
              capacity_blocks;
              min_seek_ms;
              avg_seek_ms;
              max_seek_ms;
              avg_rot_ms;
              transfer_mb_per_s;
              overhead_ms;
              seq_rot_factor;
            })
       |> req "name" (fun p -> p.Params.name) string
       |> req "capacity_blocks" (fun p -> p.Params.capacity_blocks) int
       |> req "min_seek_ms" (fun p -> p.Params.min_seek_ms) float
       |> req "avg_seek_ms" (fun p -> p.Params.avg_seek_ms) float
       |> req "max_seek_ms" (fun p -> p.Params.max_seek_ms) float
       |> req "avg_rot_ms" (fun p -> p.Params.avg_rot_ms) float
       |> req "transfer_mb_per_s" (fun p -> p.Params.transfer_mb_per_s) float
       |> req "overhead_ms" (fun p -> p.Params.overhead_ms) float
       |> req "seq_rot_factor" (fun p -> p.Params.seq_rot_factor) float))

(* Config.make's own defaults are omitted, except [alloc_policy], which
   is always written. *)
let cache =
  let open Codec in
  seal_result
    (obj
       (fun capacity_blocks alloc_policy max_managers max_levels max_file_records
            max_placeholders revocation shared_files ->
         match
           Config.make ?alloc_policy ~max_managers ~max_levels ~max_file_records
             ?max_placeholders ?revocation ~shared_files ~capacity_blocks ()
         with
         | c -> Ok c
         | exception Invalid_argument msg -> Error ("", msg))
    |> req "capacity_blocks" (fun c -> c.Config.capacity_blocks) int
    |> opt "alloc_policy"
         (fun c -> Some c.Config.alloc_policy)
         (enum ~what:"allocation policy"
            ~expected:"global-lru, alloc-lru, lru-s, lru-sp or clock-sp"
            Config.alloc_policy_to_string Config.alloc_policy_of_string)
    |> dflt "max_managers" ~default:64 (fun c -> c.Config.max_managers) int
    |> dflt "max_levels" ~default:32 (fun c -> c.Config.max_levels) int
    |> dflt "max_file_records" ~default:1024 (fun c -> c.Config.max_file_records) int
    |> opt "max_placeholders"
         (fun c ->
           if c.Config.max_placeholders = c.Config.capacity_blocks then None
           else Some c.Config.max_placeholders)
         int
    |> opt "revocation"
         (fun c -> c.Config.revocation)
         (seal
            (obj (fun min_decisions mistake_ratio -> { Config.min_decisions; mistake_ratio })
            |> req "min_decisions" (fun r -> r.Config.min_decisions) int
            |> req "mistake_ratio" (fun r -> r.Config.mistake_ratio) float))
    |> dflt "shared_files" ~default:Config.Transfer
         (fun c -> c.Config.shared_files)
         (table ~what:"shared_files mode"
            [ ("transfer", Config.Transfer); ("sticky", Config.Sticky) ]))

(* [smart] and [disk] are always written. *)
let workload_codec =
  let open Codec in
  seal_result
    (obj resolve_workload
    |> opt "app" (fun w -> match w.app with Named n -> Some n | Inline _ -> None) string
    |> opt "program"
         (fun w -> match w.app with Inline p -> Some p | Named _ -> None)
         (check Wir.check Wir.codec)
    |> opt "smart" (fun w -> Some w.smart) bool
    |> opt "disk" (fun w -> Some w.disk) int
    |> opt "manager" (fun w -> w.manager) string
    |> opt "file_blocks" (fun w -> w.file_blocks) int)

let fleet_codec =
  let open Codec in
  let link =
    obj (fun latency_ms bandwidth_mb_per_s -> { latency_ms; bandwidth_mb_per_s })
    |> req "latency_ms" (fun l -> l.latency_ms) float
    |> req "bandwidth_mb_per_s" (fun l -> l.bandwidth_mb_per_s) float
  in
  seal
    (obj (fun clients shared_files server net links lookahead_ms ->
         { clients; shared_files; server; net; links; lookahead_ms })
    |> req "clients" (fun f -> f.clients) int
    |> dflt "shared_files" ~default:0 (fun f -> f.shared_files) int
    |> req "server"
         (fun f -> f.server)
         (seal
            (obj (fun server_cache_blocks server_drive ->
                 { server_cache_blocks; server_drive })
            |> req "cache_blocks" (fun s -> s.server_cache_blocks) int
            |> req "drive" (fun s -> s.server_drive) drive))
    |> req "network" (fun f -> f.net) (seal link)
    (* Canonical order: ascending client index (decode accepts any). *)
    |> dflt "links" ~default:[]
         (fun f -> List.sort (fun (a, _) (b, _) -> compare a b) f.links)
         (list
            (seal
               (obj (fun client l -> (client, l))
               |> req "client" fst int |> flat snd link)))
    |> opt "lookahead_ms" (fun f -> f.lookahead_ms) float)

let codec =
  Codec.check check
    Codec.(seal
       (obj
          (fun seed config (hit_cost, io_cpu_cost)
               (readahead, write_cluster, scattered_layout, update_interval) disks
               workloads fleet obs ->
            {
              seed = Option.value seed ~default:0;
              config;
              update_interval;
              hit_cost;
              io_cpu_cost;
              write_cluster;
              readahead;
              scattered_layout;
              disks = Option.value disks ~default:default_disks;
              workloads;
              fleet;
              obs;
            })
       |> schema "acfc-scenario/1"
       |> opt "seed" (fun t -> Some t.seed) int
       |> req "cache" (fun t -> t.config) cache
       |> dflt "cpu" ~default:(None, None)
            (fun t -> (t.hit_cost, t.io_cpu_cost))
            (seal
               (obj (fun h i -> (h, i))
               |> opt "hit_cost" fst float |> opt "io_cpu_cost" snd float))
       |> dflt "fs" ~default:(None, None, false, 30.0)
            (fun t -> (t.readahead, t.write_cluster, t.scattered_layout, t.update_interval))
            (seal
               (obj (fun r w s u -> (r, w, s, u))
               |> opt "readahead" (fun (r, _, _, _) -> r) bool
               |> opt "write_cluster" (fun (_, w, _, _) -> w) int
               |> dflt "scattered_layout" ~default:false (fun (_, _, s, _) -> s) bool
               |> dflt "update_interval_s" ~default:30.0 (fun (_, _, _, u) -> u) float))
       |> opt "disks"
            (fun t -> Some t.disks)
            (list
               (seal
                  (obj (fun params sched ->
                       { params; sched = Option.value sched ~default:Disk.Fcfs })
                  |> req "drive" (fun d -> d.params) drive
                  |> opt "sched"
                       (fun d -> Some d.sched)
                       (table ~what:"disk scheduler" [ ("fcfs", Disk.Fcfs); ("scan", Disk.Scan) ]))))
       |> req "workloads" (fun t -> t.workloads) (list workload_codec)
       |> opt "fleet" (fun t -> t.fleet) fleet_codec
       |> dflt "obs" ~default:no_obs
            (fun t -> t.obs)
            (seal
               (obj (fun trace_path metrics_path -> { trace_path; metrics_path })
               |> opt "trace" (fun o -> o.trace_path) string
               |> opt "metrics" (fun o -> o.metrics_path) string))))

let label = "scenario"

let to_json t = Codec.encode codec t

let of_json j = Codec.decode ~label codec j

let to_string t = Codec.to_string codec t

let of_string s = Codec.of_string ~label codec s

let save t path = Codec.save codec t path

let load path = Codec.load ~label codec path

let hash t = Digest.to_hex (Digest.string (to_string t))

let hash_list ts = Digest.to_hex (Digest.string (String.concat "\n" (List.map hash ts)))
