(** The file system: files over the application-controlled cache over
    disks.

    [Fs] owns the {!Acfc_core.Cache.t} and implements its backend: a
    cache miss becomes a blocking read on the file's disk, a dirty
    eviction becomes a blocking write. Byte-granularity [read]/[write]
    calls are translated to 8 KB block references, one cache reference
    per block touched, each charged a small CPU cost (the block copy and
    system-call overhead).

    Optionally ([track_data]) the file system carries real bytes:
    a per-disk image plus in-memory frames for resident blocks, so tests
    can verify read-after-write and write-back correctness end to end.

    All [read]/[write]/[sync] calls must run inside a simulation fiber.
    The file system's own processes are engine jobs, not fibers: each
    read-ahead, each write-back and the update daemon. *)

type t

val create :
  Acfc_sim.Engine.t ->
  config:Acfc_core.Config.t ->
  ?cpu:Acfc_sim.Resource.t ->
  ?hit_cost:float ->
  ?io_cpu_cost:float ->
  ?write_cluster:int ->
  ?readahead:bool ->
  ?layout:[ `Packed | `Scattered of Acfc_sim.Rng.t ] ->
  ?track_data:bool ->
  unit ->
  t
(** [cpu], when given, serialises per-block CPU costs through a shared
    processor. [hit_cost] is the CPU seconds charged per block
    reference (default 0.0006: an 8 KB copy plus syscall overhead on a
    ~40 MHz workstation). [io_cpu_cost] is the additional CPU seconds
    each disk read costs its issuer — interrupt handling and buffer
    management (default 0.002). [readahead] (default true) enables one-block
    sequential read-ahead, as Ultrix performs; it overlaps sequential
    misses with computation without changing block-I/O counts.
    [write_cluster] (default 1 = off, matching the paper's accounting)
    lets each write-back carry up to that many contiguous dirty blocks
    of the same file in one disk request — the McVoy/Kleiman clustering
    the paper lists as future interaction work; block-I/O counts are
    unchanged, positioning costs amortise.
    [layout] (default [`Packed]) places files contiguously back to back;
    [`Scattered rng] inserts random inter-file gaps, modelling an aged
    file system where multi-file scans pay inter-file seeks. *)

val engine : t -> Acfc_sim.Engine.t

val cache : t -> Acfc_core.Cache.t

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install the observability sink on the file-system layer only: each
    data-path call ([read], [write], [sync], [fsync], [create_file],
    [unlink]) emits one {!Acfc_obs.Trace.Syscall} event (pid [-1]
    stands for the kernel / update daemon), and file and block-I/O
    totals are registered as gauges. Use {!Acfc_core.Cache.set_obs} to
    instrument the cache underneath. *)

(** {2 Files} *)

val create_file :
  t ->
  ?owner:Acfc_core.Pid.t ->
  ?reserve_bytes:int ->
  name:string ->
  disk:Acfc_disk.Disk.t ->
  size_bytes:int ->
  unit ->
  File.t
(** Allocate a file of [size_bytes] laid out contiguously on [disk].
    [reserve_bytes] (default [size_bytes]) bounds growth by later
    writes. Raises [Invalid_argument] on duplicate name, negative
    sizes, or disk-space exhaustion. *)

val lookup : t -> string -> File.t option

val file_of_id : t -> File.id -> File.t option

val unlink : t -> File.t -> unit
(** Delete: cached blocks are dropped (dirty ones without write-back,
    as for any removed file's data) and the name is freed. *)

(** {2 Data path (fiber-blocking)} *)

val read : t -> pid:Acfc_core.Pid.t -> File.t -> off:int -> len:int -> unit
(** Touch every block overlapping [\[off, off+len)]. Raises
    [Invalid_argument] if the range is outside the file. *)

val write : t -> pid:Acfc_core.Pid.t -> File.t -> off:int -> len:int -> unit
(** Dirty every block overlapping the range, growing the file up to its
    reserve. A write that only partially covers a block whose data
    exists on disk first fetches it (read-modify-write). *)

val pread : t -> pid:Acfc_core.Pid.t -> File.t -> off:int -> len:int -> bytes
(** Like {!read} but returns the bytes. Requires [track_data]. *)

val pwrite : t -> pid:Acfc_core.Pid.t -> File.t -> off:int -> bytes -> unit
(** Like {!write} with explicit contents. Requires [track_data]. *)

val sync : t -> int
(** Flush all dirty blocks; returns the number of write-back requests
    issued (fewer than the blocks flushed when [write_cluster] > 1). *)

val fsync : t -> File.t -> int

val start_update_daemon : t -> ?interval:float -> unit -> (unit -> unit)
(** Start the periodic flush daemon (Ultrix's 30 s update), an engine
    job that syncs and reschedules itself every [interval] seconds.
    Returns a stop function; the daemon stops at its next tick after it
    is called. Raises [Invalid_argument] unless [interval] is finite
    and positive. *)

(** {2 Accounting} *)

val pid_disk_reads : t -> Acfc_core.Pid.t -> int

val pid_disk_writes : t -> Acfc_core.Pid.t -> int

val pid_block_ios : t -> Acfc_core.Pid.t -> int
(** Disk reads + writes charged to the process: the paper's "number of
    block I/Os". Write-backs are charged to the file's [owner] when it
    has one, else to the process whose miss forced the eviction. *)

val total_block_ios : t -> int

val reset_accounting : t -> unit

(** {2 Test support} *)

val reads_in_flight : t -> int
(** Disk reads issued and not yet landed. Readers that hit a block
    whose read is in flight wait for it to land. *)

(** {2 Test support (track_data)} *)

val disk_image : t -> File.t -> bytes
(** Current on-disk contents (size = reserve extent), excluding dirty
    cached data. *)

val set_disk_image : t -> File.t -> off:int -> bytes -> unit
(** Pre-populate file contents directly on the disk image, bypassing
    the cache (used to set up read workloads). *)
