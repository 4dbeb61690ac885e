(** Trace-driven replacement-policy simulator.

    A pluggable framework in the style of the companion paper's
    simulation study: the framework maintains the resident set; a
    policy core ({!Acfc_policy.Policy_core.CORE}) observes accesses and
    chooses victims. Cores may inspect the whole trace (OPT does);
    online cores ignore it. {!run} is the one loop that drives a core
    over a trace: the CLI, the bench tournament, the record-twin
    lockstep ({!Reference.lockstep}) and the offline-vs-live identity
    test all replay through it. *)

type result = {
  policy : string;
  capacity : int;
  references : int;
  hits : int;
  misses : int;
}

val run : (module Acfc_policy.Policy_core.CORE) -> capacity:int -> Trace.t -> result
(** Simulate the core over the trace with [capacity] frames: a hit is a
    [Reference] event; a miss in a full cache asks for a victim
    and reports it as [Evict], then every miss is an [Admit]. Positions
    are trace indices. Raises [Invalid_argument] if [capacity] is not
    positive, or [Failure] if the core names a non-resident victim. *)

val miss_ratio : result -> float

val pp_result : Format.formatter -> result -> unit

module type POLICY = Acfc_policy.Policy_core.CORE
(** The core signature under its former name, kept for [perfbench/]. *)
