(** Observability sink: one handle bundling a trace backend, a clock
    and a {!Metrics.t} registry.

    Instrumented modules hold a [Sink.t option] that defaults to
    [None], so the disabled hot path costs a single branch and no
    allocation. When enabled, each {!emit} stamps the event with the
    simulated time from the installed clock and hands it to the
    backend. *)

type t

type backend =
  | Null  (** count events, keep nothing *)
  | Jsonl of out_channel  (** one JSON object per line *)
  | Csv of out_channel  (** header written immediately *)
  | Custom of (Trace.record -> unit)

val create : ?clock:(unit -> float) -> ?backend:backend -> unit -> t
(** Defaults: a clock stuck at [0.0] (see {!set_clock}) and [Null].
    A [Csv] backend writes its header line here. *)

val set_clock : t -> (unit -> float) -> unit
(** Install the simulated clock; {!Acfc_sim.Engine.set_obs} does this
    automatically. *)

val now : t -> float

val metrics : t -> Metrics.t

val emit : t -> Trace.t -> unit

val emitted : t -> int
(** Events emitted since creation, whatever the backend. *)

val flush : t -> unit
(** Flush an output-channel backend; a no-op otherwise. The caller
    remains responsible for closing channels it opened. *)
