(** Reference-trace recording.

    The companion paper's methodology is trace-driven simulation; this
    module closes the loop with the live system: pass {!sink} as a
    run's observability sink (or install it on one cache with
    [Cache.set_obs]), collect the reference stream from the cache's
    hit and miss records, and take it as a {!Refstream.t} with
    {!stream}.
    {!Refstream} does the rest: {!Refstream.demand} projects the trace
    to replay through {!Policy_sim} (read-ahead misses are recorded but
    flagged, and left out by default), and {!Refstream.save} /
    {!Refstream.render} write the text format. *)

type t

val create : unit -> t

val observe : t -> Acfc_obs.Trace.record -> unit
(** Record a [Cache_hit] or [Cache_miss]; every other record is
    ignored. Compose it with other consumers in one [Custom] sink. *)

val sink : t -> Acfc_obs.Sink.t
(** A fresh sink whose [Custom] backend is {!observe}. *)

val length : t -> int

val stream : t -> Refstream.t
(** The recording so far, in reference order. *)
