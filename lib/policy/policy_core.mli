(** The unified eviction-decision core.

    One replacement policy = one state machine over typed cache events.
    The same state answers victim queries for the offline trace-replay
    lab ([Acfc_replacement.Policy_sim.run], the one loop that drives a
    core over a trace) and for the live two-level kernel (installed as
    an [fbehavior] manager plug-in built by {!Live.plugin}). Both feed
    the machine the identical event sequence for the same demand
    stream, so both produce the identical victim sequence. That
    determinism contract is asserted in [test/test_policy_core.ml].

    The four events are the ones both paths can report: a block is
    referenced, admitted, evicted or invalidated. [Reference] and
    [Admit] carry the reference position [pos]: the index of the
    current reference in the demand stream. Both paths number
    references the same way (hits and miss-admissions each consume one
    position), which is what lets position-keyed policies (LRU-2, OPT)
    replay identically at both levels. *)

module Block = Acfc_core.Block

type event =
  | Reference of { pos : int; block : Block.t }
      (** The resident [block] was referenced (a cache hit). *)
  | Admit of { pos : int; block : Block.t }
      (** [block] just entered the cache (a miss, after any eviction). *)
  | Evict of { block : Block.t }
      (** [block] left the cache to make room. Usually the block the
          core just named in {!CORE.victim}, but a kernel may overrule;
          cores must tolerate eviction of any resident block. *)
  | Invalidate of { block : Block.t }
      (** [block] left the cache because its contents died (file
          invalidation) — not a replacement decision, so adaptive cores
          must not learn from it (no ghost entry). *)

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

  val on_event : t -> event -> unit

  val victim : t -> pos:int -> missing:Block.t -> Block.t
  (** Name a resident block to give up so [missing] can be admitted at
      reference position [pos]. Called only when the cache is full;
      the caller evicts the returned block (or, for a live kernel that
      overrules, some other resident) and reports it back as
      {!Evict}. *)

  val stats : t -> (string * float) list
  (** Introspection for tests and reports (adaptation targets, ghost
      sizes, learned weights). *)
end
