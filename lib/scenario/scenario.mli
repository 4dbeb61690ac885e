(** A declarative, serialisable description of a complete simulated
    machine, and the one place that assembles machines from it.

    A scenario captures everything a run depends on: the cache
    {!Acfc_core.Config.t}, CPU and hit-cost parameters, the SCSI bus
    and its disks (drive parameters, layout, scheduling discipline),
    the workloads (application, smart/oblivious, disk placement,
    per-app knobs), the RNG seed, and observability options. The same
    value drives the programmatic API ({!run}), every experiment grid,
    the [acfc-run scenario] subcommand, and the bench harness — machine
    construction is data, not code.

    Scenarios serialise to a versioned JSON document
    ([acfc-scenario/1]) via {!save}/{!load}, so any paper figure cell
    or novel mixed-workload setup can be expressed in a file, diffed,
    and replayed. {!load} rejects unknown fields with the offending
    path, so typos fail loudly.

    Behavioural contract: {!run} assembles the machine exactly as the
    historical [Runner.run] did (same RNG-split order, same fiber
    creation order), so results are bit-identical to the pre-scenario
    code for equivalent parameters. *)

module Spec = Acfc_workload.Runner.Spec

(** One drive on the shared SCSI bus. *)
type disk = {
  params : Acfc_disk.Params.t;
  sched : Acfc_disk.Disk.sched;  (** queueing discipline, default FCFS *)
}

(** What a workload runs: a {!Catalog} name, or an inline workload IR
    program carried by the scenario itself (serialised as a nested
    [acfc-wir/1] document under the ["program"] key). *)
type source =
  | Named of string  (** a {!Catalog} name: "cs3", "read300!", … *)
  | Inline of Acfc_wir.Wir.t

(** One application instance in the machine. *)
type workload = {
  app : source;
  smart : bool;  (** register as a manager and apply its strategy *)
  disk : int;  (** index into {!t.disks} *)
  file_blocks : int option;  (** readN backing-file size knob (named only) *)
  manager : string option;
      (** registry name of a replacement policy
          ({!Acfc_policy.Registry}) installed as this workload's live
          [fbehavior] manager via the plug-in path; [None] = kernel
          replacement (plus the app's own Advise calls when smart) *)
}

(** Side outputs baked into the scenario (both default to [None]). *)
type obs_spec = {
  trace_path : string option;
      (** write a structured event trace here; a [.csv] suffix selects
          CSV, anything else JSON Lines *)
  metrics_path : string option;
      (** write an end-of-run metrics snapshot (JSON) here *)
}

(** One direction-agnostic network link: fixed propagation latency plus
    a bandwidth term per transferred block. *)
type link = { latency_ms : float; bandwidth_mb_per_s : float }

(** The shared server machine of a fleet: its cache size and the drive
    behind it. *)
type fleet_server = {
  server_cache_blocks : int;
  server_drive : Acfc_disk.Params.t;
}

(** Fleet extension ([$.fleet]): replicate the machine into [clients]
    identical client machines (each running this scenario's workload
    list against its own cache and disks) in front of one shared server
    cache. File slots [0 .. shared_files-1] of the workload list are
    server-backed and shared by every client; the rest stay on the
    client's local disks. [net] is the default client↔server link;
    [links] overrides it per client index. [lookahead_ms], when given,
    must not exceed twice the minimum link latency (the conservative
    parallel-simulation bound); it defaults to exactly that bound. *)
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
  config : Acfc_core.Config.t;
  update_interval : float;  (** update-daemon period, seconds *)
  hit_cost : float option;  (** CPU seconds per block reference *)
  io_cpu_cost : float option;  (** CPU seconds per disk read *)
  write_cluster : int option;  (** dirty blocks per write-back request *)
  readahead : bool option;  (** one-block sequential read-ahead *)
  scattered_layout : bool;  (** aged file system with inter-file gaps *)
  disks : disk list;
  workloads : workload list;
  fleet : fleet option;  (** fleet extension; [None] = single machine *)
  obs : obs_spec;
}

val default_disks : disk list
(** The paper's testbed: disk 0 an RZ56 and disk 1 an RZ26, both FCFS
    on one shared SCSI bus. *)

val no_obs : obs_spec

val blocks_of_mb : float -> int
(** Cache capacity in 8 KB blocks for a size in MB ([6.4] -> 819, the
    default Ultrix cache of the paper's workstation). *)

val workload :
  ?smart:bool -> ?disk:int -> ?file_blocks:int -> ?manager:string -> string -> workload
(** A workload referencing a {!Catalog} application by name. [smart]
    defaults to the catalog's [smart_default] (paper apps and readN!
    apply their strategies; plain readN is oblivious); [disk] defaults
    to the catalog's paper disk assignment; [manager] names a registry
    policy to run as the workload's live manager. Raises
    [Invalid_argument] on an unknown name, a misapplied [file_blocks],
    or an unknown/offline-only [manager]. *)

val inline_workload :
  ?smart:bool -> ?disk:int -> ?manager:string -> Acfc_wir.Wir.t -> workload
(** A workload carrying its own IR program ([smart] defaults to true,
    [disk] to 0; [manager] as in {!workload}). Raises
    [Invalid_argument] on an invalid program
    (see {!Acfc_wir.Wir.validate}). *)

val inline_workloads : t -> t
(** Replace every [Named] workload by the [Inline] program the catalog
    application compiles to, so the scenario carries its workloads
    whole (its JSON form no longer references the catalog). Behaviour
    is identical by construction — the catalog applications {e are}
    programs. Raises [Failure] if a name no longer resolves or names a
    closure application. *)

val min_period_s : float
(** The shortest period, in simulated seconds, of a periodic process: the
    update daemon's [update_interval] and a monitor's sampling period.
    0.01 s, about one disk service time. Each tick costs a sync or a
    snapshot, so a shorter period spends the run ticking at time 0. *)

val make :
  ?seed:int ->
  ?disks:disk list ->
  ?disk_sched:Acfc_disk.Disk.sched ->
  ?update_interval:float ->
  ?hit_cost:float ->
  ?io_cpu_cost:float ->
  ?write_cluster:int ->
  ?readahead:bool ->
  ?scattered_layout:bool ->
  ?revocation:Acfc_core.Config.revocation ->
  ?shared_files:Acfc_core.Config.shared_files ->
  ?config:Acfc_core.Config.t ->
  ?obs:obs_spec ->
  ?cache_blocks:int ->
  ?alloc_policy:Acfc_core.Config.alloc_policy ->
  ?fleet:fleet ->
  workload list ->
  t
(** Build a scenario. Either pass a full [config], or [cache_blocks]
    (required in that case) plus [alloc_policy] (default [Lru_sp]) and
    the optional [revocation] / [shared_files] knobs. [disk_sched]
    overrides the discipline of every disk in [disks] (which default to
    {!default_disks}); [update_interval] defaults to 30 s. Raises
    [Invalid_argument] on a [seed] beyond ±2{^53} (the canonical JSON
    form could not hold it), an empty workload list, an out-of-range disk
    index, conflicting [config] + cache knobs, an invalid [fleet] (bad
    link index, non-positive latency, lookahead above the bound), or a
    machine number that would hang or break a run: [update_interval]
    not finite or below {!min_period_s}, [write_cluster] below 1, a negative or
    non-finite [hit_cost] / [io_cpu_cost], or drive parameters with a
    capacity below 1 block, a transfer rate not finite and > 0, or a
    negative or non-finite time; or a cache larger than the drives it
    fronts (every disk, plus the server drive in a fleet; the server
    cache, its drive). {!of_json} applies the same checks. *)

(** {2 Fleet helpers} *)

val fleet :
  ?shared_files:int ->
  ?links:(int * link) list ->
  ?lookahead_ms:float ->
  ?server_drive:Acfc_disk.Params.t ->
  clients:int ->
  server_cache_blocks:int ->
  latency_ms:float ->
  bandwidth_mb_per_s:float ->
  unit ->
  fleet
(** Validated {!type-fleet} constructor ([shared_files] defaults to 0,
    [links] to none, [server_drive] to the RZ56). Raises
    [Invalid_argument] with the offending sub-path on bad values. *)

val client_link : fleet -> int -> link
(** Effective link of a client: its [links] override, else [net]. *)

val fleet_min_latency_ms : fleet -> float
(** Minimum effective link latency over all clients. *)

val fleet_lookahead_ms : fleet -> float
(** The epoch length the fleet engine will use: [lookahead_ms] if set,
    else twice {!fleet_min_latency_ms} — the largest window that still
    guarantees a request sent in one epoch cannot be answered within
    the same epoch. *)

(** {2 Building and running} *)

(** The assembled machine, before any workload has run. *)
type machine = {
  engine : Acfc_sim.Engine.t;
  bus : Acfc_disk.Bus.t;
  disk_array : Acfc_disk.Disk.t array;
  cpu : Acfc_sim.Resource.t;
  fs : Acfc_fs.Fs.t;
  cache : Acfc_core.Cache.t;
  rng : Acfc_sim.Rng.t;  (** post-assembly state: split per workload *)
}

val build : ?obs:Acfc_obs.Sink.t -> t -> machine
(** Assemble engine, bus, disks, CPU, file system and cache for the
    scenario — everything except the workload fibers — and wire the
    optional observability sink through every layer. *)

val workload_rngs : t -> Acfc_sim.Rng.t list
(** The private RNG stream each workload fiber would receive from
    {!run}, one per workload in order, reproduced without assembling a
    machine (same create/split order as {!build}). Pass one to
    {!Acfc_wir.Wir.references} to fast-forward the exact stochastic
    demand stream of a live run of this scenario. *)

val run :
  ?obs:Acfc_obs.Sink.t ->
  ?monitor:Acfc_obs.Monitor.producer * float ->
  t ->
  Acfc_workload.Runner.t
(** {!build}, spawn one fiber per workload, run the simulation to
    completion and collect the usual {!Acfc_workload.Runner.t} results.
    [obs], when given, is threaded through every layer and additionally
    carries per-application gauges named [app.<index>.<name>.*]; it
    takes precedence over [t.obs] (which {!run} does {e not} open —
    file side outputs are the CLI's job). [monitor], when given as
    [(producer, every)], spawns a sampler fiber that streams a metrics
    snapshot to the producer every [every] simulated seconds while the
    workloads run, then emits a final snapshot and closes the stream;
    it requires [obs] and an [every] that is finite and at least
    {!min_period_s} (raises [Invalid_argument] otherwise), and does
    not perturb unmonitored runs. Raises [Failure] if a workload name
    no longer resolves. *)

val run_specs :
  ?seed:int ->
  ?disks:Acfc_disk.Params.t list ->
  ?disk_sched:Acfc_disk.Disk.sched ->
  ?update_interval:float ->
  ?hit_cost:float ->
  ?io_cpu_cost:float ->
  ?write_cluster:int ->
  ?readahead:bool ->
  ?scattered_layout:bool ->
  ?revocation:Acfc_core.Config.revocation ->
  ?shared_files:Acfc_core.Config.shared_files ->
  ?obs:Acfc_obs.Sink.t ->
  ?monitor:Acfc_obs.Monitor.producer * float ->
  cache_blocks:int ->
  alloc_policy:Acfc_core.Config.alloc_policy ->
  Spec.t list ->
  Acfc_workload.Runner.t
(** Escape hatch for programmatically-constructed {!Acfc_workload.App.t}
    values that have no catalog name (custom workloads in tests and
    examples). Same machine assembly, defaults and machine-number checks
    as {!run} and {!make}; anything expressible by name should use a
    scenario instead, so it can be saved and replayed. *)

(** {2 Serialisation (acfc-scenario/1)} *)

val to_json : t -> Acfc_obs.Json.t
(** Canonical JSON form: stable member order, defaults omitted. *)

val of_json : Acfc_obs.Json.t -> (t, string) result
(** Errors are prefixed ["scenario:"] and name the offending path,
    e.g. [scenario: unknown field "polcy" at $.cache]. Unknown and
    duplicate members, bad enum values, out-of-range disk indices and
    out-of-range machine numbers are all rejected, with the same checks
    as {!make}. *)

val to_string : t -> string
(** Single-line canonical JSON. *)

val of_string : string -> (t, string) result

val save : t -> string -> unit
(** Write {!to_string} plus a trailing newline to a file. *)

val load : string -> (t, string) result
(** Read and parse a scenario file; I/O errors land in [Error] too. *)

val hash : t -> string
(** Hex digest of the canonical JSON — a stable fingerprint that makes
    bench artifacts traceable to exact configurations. *)

val hash_list : t list -> string
(** Combined fingerprint of a scenario grid, order-sensitive. *)
