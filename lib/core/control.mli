(** Per-process handle on the [fbehavior] interface.

    A [Control.t] binds one process to one cache, mirroring how the
    paper multiplexes the five control operations through a single new
    system call. Obtaining a handle registers the process as a manager;
    from then on the kernel consults it on replacement. *)

type t

val attach : Cache.t -> Pid.t -> (t, Error.t) result
(** Register [pid] as a self-managing process. *)

val detach : t -> unit
(** Unregister; the process becomes oblivious again. *)

val pid : t -> Pid.t

val cache : t -> Cache.t

val set_priority : t -> file:Block.file -> int -> (unit, Error.t) result

val get_priority : t -> file:Block.file -> (int, Error.t) result

val set_policy : t -> prio:int -> Policy.t -> (unit, Error.t) result

val get_policy : t -> prio:int -> (Policy.t, Error.t) result

val set_temppri :
  t -> file:Block.file -> first:int -> last:int -> prio:int -> (unit, Error.t) result

val set_chooser :
  t ->
  (candidate:Block.t -> resident:Block.t list -> Block.t option) option ->
  (unit, Error.t) result
(** Install an upcall replacement handler instead of the priority-pool
    policies; see {!Acm.set_chooser}. *)

val set_plugin : t -> Acm.plugin option -> (unit, Error.t) result
(** Install an event-driven replacement plug-in for this manager (a
    unified policy core, built by [Acfc_policy.Live.plugin]); see
    {!Acm.set_plugin}. *)

val revoked : t -> bool
(** Has the kernel revoked this manager's control privilege? *)
