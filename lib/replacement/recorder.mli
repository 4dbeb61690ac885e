(** Reference-trace recording.

    The companion paper's methodology is trace-driven simulation; this
    module closes the loop with the live system: install {!tracer} on a
    running cache (or pass it to the workload runner), collect the
    reference stream, and take it as a {!Refstream.t} with {!stream}.
    {!Refstream} does the rest: {!Refstream.demand} projects the trace
    to replay through {!Policy_sim} (read-ahead misses are recorded but
    flagged, and left out by default), and {!Refstream.save} /
    {!Refstream.render} write the text format. *)

type t

val create : unit -> t

val tracer : t -> Acfc_core.Event.t -> unit
(** The callback to install with [Cache.set_tracer] (or compose with
    another tracer). Only hit/miss events are recorded. *)

val length : t -> int

val stream : t -> Refstream.t
(** The recording so far, in reference order. *)
