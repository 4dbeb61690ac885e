(** Application-controlled buffer cache — public facade.

    A [Cache_ref.t] wires together the paper's two kernel modules, {!Buf_ref}
    (allocation, global LRU list, swapping, placeholders) and {!Acm_ref}
    (per-manager priority levels and policies), behind one handle.

    The data path ({!read}, {!write}, {!sync}) is called by the
    file-system layer; the control path (the [fbehavior] operations) by
    applications, usually through the more convenient {!Control}
    handles. *)

type t

exception Cache_busy
(** See {!Buf_ref.Cache_busy}. *)

val create : ?backend:Backend.t -> Config.t -> t
(** [backend] defaults to {!Backend.null} (no device: pure replacement
    simulation, as used by the tests and the trace-driven lab). *)

val config : t -> Config.t

val set_tracer : t -> (Event.t -> unit) option -> unit

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install the observability sink on both kernel halves ({!Buf_ref} and
    {!Acm_ref}): typed trace events for every cache transition and
    [fbehavior] call, plus counter gauges on the sink's metrics
    registry. [None] (the default) disables instrumentation; the
    hot-path cost is then a single branch. *)

(** {2 Data path} *)

val read : ?prefetch:bool -> t -> pid:Pid.t -> Block.t -> [ `Hit | `Miss ]

val write : t -> pid:Pid.t -> Block.t -> fetch:bool -> [ `Hit | `Miss ]

val fetched : t -> int -> unit
(** See {!Buf_ref.fetched}. *)

val sync : t -> ?file:Block.file -> unit -> int

val take_dirty_followers : t -> Block.t -> max_blocks:int -> Block.t list
(** See {!Buf_ref.take_dirty_followers}. *)

val invalidate_file : t -> file:Block.file -> int

val contains : t -> Block.t -> bool

val is_dirty : t -> Block.t -> bool

val length : t -> int

val capacity : t -> int

(** {2 Control path: manager registration and [fbehavior]} *)

val register_manager : t -> Pid.t -> (unit, Error.t) result

val unregister_manager : t -> Pid.t -> unit

val is_manager : t -> Pid.t -> bool

val set_priority : t -> Pid.t -> file:Block.file -> prio:int -> (unit, Error.t) result

val get_priority : t -> Pid.t -> file:Block.file -> (int, Error.t) result

val set_policy : t -> Pid.t -> prio:int -> Policy.t -> (unit, Error.t) result

val get_policy : t -> Pid.t -> prio:int -> (Policy.t, Error.t) result

val set_temppri :
  t -> Pid.t -> file:Block.file -> first:int -> last:int -> prio:int ->
  (unit, Error.t) result

val set_chooser :
  t ->
  Pid.t ->
  (candidate:Block.t -> resident:Block.t list -> Block.t option) option ->
  (unit, Error.t) result
(** Install an upcall replacement handler; see {!Acm_ref.set_chooser}. *)

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val writebacks : t -> int
val overrule_count : t -> int
val placeholders_created : t -> int
val placeholders_used : t -> int
val placeholder_count : t -> int
val pid_hits : t -> Pid.t -> int
val pid_misses : t -> Pid.t -> int
val manager_decisions : t -> Pid.t -> int
val manager_overrules : t -> Pid.t -> int
val manager_mistakes : t -> Pid.t -> int
val manager_revoked : t -> Pid.t -> bool
val reset_stats : t -> unit

(** {2 Testing support} *)

val lru_keys : t -> Block.t list

val level_blocks : t -> Pid.t -> prio:int -> Block.t list

val check_invariants : t -> unit
