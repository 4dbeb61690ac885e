(** Simulated SCSI disk drive.

    Service model per request, from the head's last position:

    - fixed controller overhead;
    - seek over the block distance ({!Params.seek_time_s});
    - rotational latency: a small interleave penalty
      ({!Params.t.seq_rot_factor} of the average) when the request is
      sequential with the previous one, otherwise drawn uniformly in
      [\[0, 2·avg_rot\]] (or the average, without an rng);
    - transfer of one block, holding the (optional) shared {!Bus.t}.

    Queueing is governed by the {!sched} discipline: FCFS (what Ultrix
    does, and the default) or SCAN — the classic elevator, which serves
    the nearest request in the direction the head is sweeping and is
    provided for the paper's "interaction with disk scheduling"
    future-work question (see the ablation benchmarks).

    A request runs as engine jobs, one per stage: positioning ends, the
    transfer ends. {!submit} runs a prebuilt callback in the event
    where the request completes; {!io} is built on it, parking the
    calling fiber once and resuming it inside that event. *)

type t

type kind = Read | Write

(** Queueing discipline for waiting requests. *)
type sched =
  | Fcfs  (** first-come first-served *)
  | Scan  (** elevator: sweep toward the nearest request, reverse at the ends *)

val create :
  Acfc_sim.Engine.t ->
  ?bus:Bus.t ->
  ?rng:Acfc_sim.Rng.t ->
  ?sched:sched ->
  Params.t ->
  t
(** [rng] drives rotational-latency draws; omit it for a deterministic
    drive that always pays the average rotational latency. [sched]
    defaults to {!Fcfs}. *)

val params : t -> Params.t

val sched : t -> sched

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install the observability sink: each request emits a
    {!Acfc_obs.Trace.Disk_io} event with its seek / rotation / transfer
    / queue-wait decomposition, service and wait latencies feed
    histograms ([disk.<name>.service_s], [disk.<name>.wait_s_hist]),
    and the drive counters are registered as gauges. *)

val submit : t -> kind -> addr:int -> blocks:int -> tag:int -> (int -> unit) -> unit
(** [submit t kind ~addr ~blocks ~tag on_done] issues one request at
    absolute block address [addr] without blocking: [blocks] transfers
    a contiguous cluster in the same request, one positioning and
    [blocks] transfers (the disk-block clustering of McVoy & Kleiman
    that the paper lists as future interaction work). In the event
    where the request completes, after its accounting and after the
    drive has passed to the next request, the drive calls [on_done
    tag]; pass a callback built once, and a request allocates nothing.
    A request with no positioning or transfer time completes inside
    this call. Raises [Invalid_argument] if the extent is outside the
    disk. *)

val io : ?blocks:int -> t -> kind -> addr:int -> unit
(** [io t kind ~addr] is {!submit} for a fiber: it blocks the calling
    fiber for queueing plus service time, and the fiber goes on inside
    the completing event. [blocks] defaults to 1. Must be called from a
    fiber. *)

val service_time : t -> addr:int -> float
(** Service time (seconds, excluding queueing and bus contention) that
    the next request at [addr] would cost, without performing it. Uses
    the average rotational latency; exposed for tests and calibration. *)

(** {2 Statistics} *)

val reads : t -> int

val writes : t -> int

val sequential_hits : t -> int
(** Requests that were sequential with their predecessor. *)

val blocks_transferred : t -> int
(** Total blocks moved; exceeds [reads + writes] when requests are
    clustered. *)

val busy_time : t -> float
(** Total drive-seconds spent in service. *)

val total_wait : t -> float
(** Total queueing delay endured by requests at this drive. *)

val queue_length : t -> int
(** Requests currently waiting (excluding the one in service). *)

val reset_stats : t -> unit
