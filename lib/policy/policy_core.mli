(** The unified eviction-decision core.

    One replacement policy = one state machine driven by direct calls.
    The same state answers victim queries for the offline trace-replay
    lab ([Acfc_replacement.Policy_sim.run], the one loop that drives a
    core over a trace) and for the live two-level kernel (installed as
    an [fbehavior] manager plug-in built by {!Live.plugin}). Both make
    the identical call sequence for the same demand stream, so both
    produce the identical victim sequence. That determinism contract is
    asserted in [test/test_policy_core.ml].

    {2 Ids}

    Every core keeps one block table: a map from a packed key
    ({!Acfc_core.Block.pack}) to a small dense id, holding every block
    the core remembers, resident or ghost. All calls below name blocks
    by these ids, and every per-block column of the core is indexed by
    them. An id is the core's until it forgets the block (an eviction
    that keeps no ghost, a ghost that expires, an invalidation); it may
    then be handed to another block, but never while its block is
    remembered. A caller that keeps its own per-id column (the replay's
    resident flags) must therefore clear a block's cell before it
    evicts or invalidates it.

    {2 Positions}

    {!CORE.reference} and {!CORE.admit} carry the reference position
    [pos]: the index of the current reference in the demand stream.
    Both paths number references the same way (hits and miss-admissions
    each consume one position), which is what lets position-keyed
    policies (LRU-2, OPT) replay identically at both levels. *)

module Block = Acfc_core.Block

module type CORE = sig
  type t

  val name : string
  (** Registry name, uppercase (e.g. "LRU", "ARC"). *)

  val summary : string
  (** One-line description for [acfc-run policy list]. *)

  val adaptive : bool
  (** True for the learned policies (ARC/AWRP/PERCEPTRON). *)

  val needs_future : bool
  (** True when {!create} requires the full future reference stream
      (OPT). Such cores cannot run as live managers. *)

  val create : capacity:int -> future:Block.t array -> t
  (** [future] is the demand stream for clairvoyant policies; online
      policies ignore it (live managers pass [[||]]). *)

  val find : t -> int -> int
  (** The id of the block with this packed key, or [-1] when the core
      does not remember it. A remembered block need not be resident:
      ghosts have ids too. *)

  val key : t -> int -> int
  (** The packed key of a remembered block's id. *)

  val reference : t -> pos:int -> int -> unit
  (** The resident block [id] was referenced (a cache hit). *)

  val admit : t -> pos:int -> int -> int
  (** The block with this packed key, not resident, entered the cache
      (a miss, after any eviction); returns its id. The core resolves
      the key itself, after the eviction: an eviction may have
      forgotten the block's own ghost (ARC trims its ghost lists). *)

  val evict : t -> int -> unit
  (** The resident block [id] left the cache to make room. Usually the
      block the core just named in {!victim}, but a kernel may
      overrule: cores must tolerate eviction of any resident block. *)

  val invalidate : t -> int -> unit
  (** The resident block [id] left the cache because its contents died
      (file invalidation, ownership transfer). Not a replacement
      decision, so adaptive cores must not learn from it (no ghost). *)

  val victim : t -> pos:int -> missing:int -> int
  (** The id of a resident block to give up so the missing block can be
      admitted at reference position [pos]. [missing] is the missing
      block's id ({!find}), or [-1] when the core does not remember it.
      Called only when the cache is full; the caller evicts the returned
      block (or, for a live kernel that overrules, some other resident)
      and reports it with {!evict}. *)

  val stats : t -> (string * float) list
  (** Introspection for tests and reports (adaptation targets, ghost
      sizes, learned weights). Every core reports ["ids"], the ids its
      table holds. *)
end
