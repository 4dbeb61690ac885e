(** Application Control Module, columnar core.

    ACM is the kernel half that "implements the interface calls and acts
    as a proxy for the user-level managers" (paper Sec. 4). It keeps,
    for every registered manager process: a set of priority levels, each
    with a block list in recency order and an {!Policy.t}; the long-term
    priorities of that manager's files; and the statistics the kernel
    uses to detect foolish managers.

    Blocks are named by their {!Ctab} slot: the level lists are
    intrusive {!Ilist}s over the shared table's link columns and the
    per-access notifications below are int-only on the steady-state
    path. The record-based predecessor is retained as {!Acm_ref} and
    proven trace-identical by lockstep replay ({!Lockstep},
    `bench check`).

    BUF notifies ACM through {!new_block}, {!block_gone},
    {!block_accessed} and {!placeholder_used}, and asks it for decisions
    through {!replace_block} — the paper's five procedure calls. *)

type t

type plugin = {
  on_admit : Block.t -> unit;
      (** The block entered (or transferred into) the manager's set. *)
  on_reference : Block.t -> unit;
      (** The block, already in the set, was referenced. *)
  on_remove : Block.t -> invalidated:bool -> unit;
      (** The block left the set. [invalidated] marks departures that
          were not replacement decisions (file invalidation, ownership
          transfer): an adaptive plug-in must not learn from those. *)
  choose : missing:Block.t -> Block.t option;
      (** Name a victim so [missing] can come in; [None] or an invalid
          (non-resident, pinned) answer falls back to the upcall
          chooser / priority-pool decision. *)
}
(** An event-driven replacement plug-in (how a unified policy core
    runs live, built by {!Acfc_policy.Live.plugin}). Expressed as plain
    callbacks so the core library carries no dependency on the policy
    library. Installed per manager via {!set_plugin}; consulted by
    {!replace_block} before the upcall chooser. *)

val create : Config.t -> tab:Ctab.t -> t
(** [tab] is the columnar entry table shared with {!Buf} (built by
    {!Cache.create}). *)

val set_tracer : t -> (Event.t -> unit) option -> unit
(** Install a callback receiving {!Event.Manager_revoked} events. *)

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install the observability sink. Every [fbehavior] control call is
    emitted as a {!Acfc_obs.Trace.Syscall} event, and revocations as
    {!Acfc_obs.Trace.Manager_revoked}. *)

(** {2 Manager lifecycle} *)

val register : t -> Pid.t -> (unit, Error.t) result
(** Allocate a manager structure for [pid]. From then on the process's
    blocks are linked into its priority-level lists and the kernel
    consults it on replacement. *)

val unregister : t -> Pid.t -> unit
(** Drop the manager structure; its blocks become unmanaged (plain
    global-LRU blocks). No-op if not registered. *)

val is_registered : t -> Pid.t -> bool

val consults : t -> Pid.t -> bool
(** Registered and not revoked: the kernel will ask this manager for
    replacement decisions. *)

val manager_count : t -> int

(** {2 BUF → ACM notifications and queries (paper Sec. 4)} *)

val new_block : t -> pid:Pid.t -> prefetched:bool -> int -> unit
(** The slot just entered the cache on behalf of [pid]; link it into
    the appropriate level list based on its file's long-term priority
    (if [pid] has a manager). A demand-fetched block takes the MRU
    position; a [prefetched] (read-ahead) block has not been referenced
    yet, so it enters at the end its level's policy replaces later and
    gains recency only at its first real access. *)

val block_gone : ?invalidated:bool -> t -> int -> unit
(** The slot left the cache; unlink it from any manager lists.
    [invalidated] (default false) marks removals that were not
    replacement decisions — see {!plugin.on_remove}. *)

val block_accessed : t -> pid:Pid.t -> int -> unit
(** The slot was referenced by [pid]: expire any temporary priority
    (reverting to the file's long-term priority), transfer the block to
    [pid]'s manager if ownership moved between processes, and record the
    reference by moving the block to the MRU end of its level list. *)

val replace_block : t -> candidate:int -> missing:Block.t -> int
(** Ask the manager of [candidate]'s owner which block to give up,
    offering [candidate] as the kernel's suggestion. Returns the chosen
    resident, unpinned slot — [candidate] itself when the owner has no
    (consulted) manager or agrees with the kernel. The manager picks
    from its lowest-priority non-empty level, at the end its policy
    replaces first. *)

val placeholder_used : t -> chooser:Pid.t -> unit
(** A placeholder fired: an earlier overrule by [chooser] was a
    mistake. Updates the mistake statistics and, if configured, revokes
    a consistently foolish manager. *)

(** {2 The application interface (multiplexed by [fbehavior])} *)

val set_priority : t -> Pid.t -> file:Block.file -> prio:int -> (unit, Error.t) result
(** Set the long-term cache priority of a file. Cached, non-temporary
    blocks of the file move to the new level immediately, entering at
    the end that causes them to be replaced later. *)

val get_priority : t -> Pid.t -> file:Block.file -> (int, Error.t) result

val set_policy : t -> Pid.t -> prio:int -> Policy.t -> (unit, Error.t) result
(** Set the replacement policy of a priority level (default LRU). *)

val get_policy : t -> Pid.t -> prio:int -> (Policy.t, Error.t) result

val set_temppri :
  t -> Pid.t -> file:Block.file -> first:int -> last:int -> prio:int ->
  (unit, Error.t) result
(** Temporarily move the cached blocks [first..last] of [file] to level
    [prio]; each block reverts to its long-term priority at its next
    reference or replacement. *)

val set_chooser :
  t ->
  Pid.t ->
  (candidate:Block.t -> resident:Block.t list -> Block.t option) option ->
  (unit, Error.t) result
(** Install (or clear) an {e upcall} replacement handler for a manager:
    instead of the priority-pool decision, the handler is consulted on
    every replacement with the kernel's candidate and the manager's full
    resident set, and may name any of its own blocks. Returning [None]
    or an invalid block falls back to the pool decision. This is the
    "totally general mechanism" of paper Sec. 3 / the upcall design of
    Sec. 4 — flexible, but it pays to materialise the resident set on
    every miss (the overhead the paper's primitive interface avoids;
    see the micro-benchmarks). *)

val set_plugin : t -> Pid.t -> plugin option -> (unit, Error.t) result
(** Install (or clear) an event-driven replacement {!plugin} for a
    manager. The plug-in receives every membership change of the
    manager's block set and is consulted first on every replacement;
    an invalid answer falls back to the chooser / pool decision. Blocks
    the manager already owns are announced to a new plug-in as
    [on_admit] calls, oldest first: level by level in ascending
    priority, each level from its LRU end. *)

(** {2 Statistics} *)

val decisions : t -> Pid.t -> int
(** [replace_block] consultations answered by this manager. *)

val overrules : t -> Pid.t -> int
(** Consultations where the manager rejected the kernel's candidate. *)

val mistakes : t -> Pid.t -> int
(** Overrules later proven wrong by a placeholder. *)

val revoked : t -> Pid.t -> bool

(** {2 Testing support} *)

val check_invariants : t -> unit
(** Raise [Failure] if any internal invariant is broken. O(cache). *)

val level_blocks : t -> Pid.t -> prio:int -> Block.t list
(** Blocks of one level, MRU end first. Empty for absent levels. *)
