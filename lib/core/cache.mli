(** Application-controlled buffer cache — public facade.

    A [Cache.t] wires together the paper's two kernel modules, {!Buf}
    (allocation, global LRU list, swapping, placeholders) and {!Acm}
    (per-manager priority levels and policies), behind one handle.

    The data path ({!read}, {!write}, {!sync}) is called by the
    file-system layer; the control path (the [fbehavior] operations) by
    applications, usually through the more convenient {!Control}
    handles. *)

type t

exception Cache_busy
(** See {!Buf.Cache_busy}. *)

val create : ?backend:Backend.t -> Config.t -> t
(** [backend] defaults to {!Backend.null} (no device: pure replacement
    simulation, as used by the tests and the trace-driven lab). *)

val config : t -> Config.t

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install the observability sink on both kernel halves ({!Buf} and
    {!Acm}): typed trace events for every cache transition and
    [fbehavior] call, plus counter gauges on the sink's metrics
    registry. [None] (the default) disables instrumentation; the
    hot-path cost is then a single branch. This is the cache's one
    event channel: the trace recorder, the tests and the executable
    spec's refinement check all read it. *)

(** {2 Data path} *)

val read : ?prefetch:bool -> t -> pid:Pid.t -> Block.t -> [ `Hit | `Miss ]
(** [read_packed] of [Block.pack key]; raises [Invalid_argument] where
    {!Block.pack} does. *)

val read_packed : ?prefetch:bool -> t -> pid:Pid.t -> int -> [ `Hit | `Miss ]
(** {!read} by packed key: see {!Buf.read_packed}. *)

val write : t -> pid:Pid.t -> Block.t -> fetch:bool -> [ `Hit | `Miss ]
(** [write_packed] of [Block.pack key]. *)

val write_packed : t -> pid:Pid.t -> int -> fetch:bool -> [ `Hit | `Miss ]
(** {!write} by packed key: see {!Buf.write_packed}. *)

val fetched : t -> int -> unit
(** See {!Buf.fetched}: a fetch the backend left in flight has landed. *)

val sync : t -> ?file:Block.file -> unit -> int

val take_dirty_followers : t -> Block.t -> max_blocks:int -> Block.t list
(** See {!Buf.take_dirty_followers}. *)

val invalidate_file : t -> file:Block.file -> int

val contains : t -> Block.t -> bool

val contains_packed : t -> int -> bool
(** {!contains} by packed key. *)

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
(** Install an upcall replacement handler; see {!Acm.set_chooser}. *)

val set_plugin : t -> Pid.t -> Acm.plugin option -> (unit, Error.t) result
(** Install an event-driven replacement plug-in; see {!Acm.set_plugin}. *)

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
val manager_members : t -> Pid.t -> int
val reset_stats : t -> unit

(** {2 Testing support} *)

val lru_keys : t -> Block.t list

val level_blocks : t -> Pid.t -> prio:int -> Block.t list

val manager_resident : t -> Pid.t -> Block.t list
(** {!Acm.resident}: the manager's set as its upcall chooser sees it,
    ascending by {!Block.compare}. *)

val check_invariants : t -> unit
