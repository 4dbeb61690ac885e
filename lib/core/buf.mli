(** The buffer cache module (BUF).

    BUF "handles cache management and bookkeeping and implements the
    allocation policy" (paper Sec. 4): the block table, the kernel's
    global LRU list, and — for LRU-SP — the swapping and placeholder
    machinery. On replacement it picks a candidate and asks {!Acm}
    which block the candidate's manager actually wants to give up.

    Replacement walk (paper Sec. 4, for {!Config.Lru_sp}):
    + if the missing block has a placeholder, the block the placeholder
      points to becomes the candidate (and the manager that caused the
      placeholder is charged a mistake); otherwise the candidate is the
      LRU-end block;
    + the candidate's manager is consulted ([Acm.replace_block]) and may
      overrule with a block of its own;
    + on overrule the two blocks swap positions in the global LRU list
      and a placeholder for the evicted block, pointing at the surviving
      candidate, is installed.

    The other {!Config.alloc_policy} values disable the corresponding
    steps.

    This is the columnar implementation: the block table is an
    int-keyed {!Itbl} over packed block ids, the global list an
    intrusive {!Ilist} over the shared {!Ctab} columns, and the
    steady-state hit/miss paths are allocation-free: blocks stay packed
    keys down to the {!Backend}, and trace events are built only when an
    obs sink is installed. A test-only executable spec states the same
    rules, and the same trace, over plain lists, and refinement replays
    hold this module to it ([test/oracle]). *)

type t

exception Cache_busy
(** Raised when every cached block is pinned by in-flight I/O and no
    victim can be chosen. Callers inside a simulation should back off
    and retry; it cannot happen unless concurrent I/Os ≥ cache size. *)

val create : Config.t -> acm:Acm.t -> tab:Ctab.t -> table:Itbl.t -> backend:Backend.t -> t
(** [tab] is the columnar entry table and [table] the block table
    (packed block id -> slot), both shared with [acm] (see
    {!Cache.create}). BUF alone writes [table]. *)

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install (or remove) the observability sink, also on the underlying
    {!Acm}. When installed, every hit, miss, eviction, swap, writeback
    and placeholder transition is emitted as a timestamped
    {!Acfc_obs.Trace.t} event, and the cache's counters are registered
    as gauges on the sink's metrics registry. Off ([None]) by default;
    the disabled hot path costs one branch. *)

val config : t -> Config.t

(** {2 Data path} *)

val read_packed : ?prefetch:bool -> t -> pid:Pid.t -> int -> [ `Hit | `Miss ]
(** Reference a block, named by its packed key ({!Block.pack}), for
    reading; on a miss, makes room (replacement), inserts the block and
    fetches it through the backend (see {!fetched} for a fetch that
    lands later). [prefetch] (default false) marks a
    read-ahead: the block is installed without recency (see
    {!Acm.new_block}). The one read path: {!Cache.read} packs its key
    and calls it. A hit or a miss builds no [Block.t] unless an obs sink
    is installed. *)

val fetched : t -> int -> unit
(** [fetched t pkey] reports that the fetch of the block with packed key
    [pkey], which the backend's [read_block] left in flight (it
    answered [false]), has landed: the frame, pinned since the miss,
    becomes evictable again. Raises [Invalid_argument] if the block is
    absent or not pinned. *)

val write_packed : t -> pid:Pid.t -> int -> fetch:bool -> [ `Hit | `Miss ]
(** Reference a block, named by its packed key, for writing, marking it
    dirty. On a miss the block is installed without device traffic
    unless [fetch] is true (read-modify-write for partial-block
    writes). *)

val sync : t -> ?file:Block.file -> unit -> int
(** Write back every dirty block (of [file] if given); returns how many
    backend write-backs were issued (a backend doing clustered
    write-back may clean several blocks per call via
    {!take_dirty_followers}). *)

val take_dirty_followers : t -> Block.t -> max_blocks:int -> Block.t list
(** Support for clustered write-back (the backend may write several
    contiguous blocks in one device request): clean and return the
    resident, dirty, unpinned blocks contiguously following [key] in its
    file, at most [max_blocks - 1]. The caller {e must} write them. *)

val invalidate_file : t -> file:Block.file -> int
(** Drop all cached blocks of a deleted file, dirty ones included,
    without writing them back. Pinned blocks are skipped. Returns the
    number of blocks dropped. *)

val contains_packed : t -> int -> bool

val is_dirty : t -> Block.t -> bool
(** False when the block is absent. *)

val length : t -> int

val capacity : t -> int

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val writebacks : t -> int
val overrule_count : t -> int
val placeholders_created : t -> int
val placeholders_used : t -> int
val placeholder_count : t -> int
(** Placeholders currently installed. *)

val pid_hits : t -> Pid.t -> int
val pid_misses : t -> Pid.t -> int

val reset_stats : t -> unit
(** Zero the counters above (cache contents are untouched). *)

(** {2 Testing support} *)

val lru_keys : t -> Block.t list
(** Global LRU list, MRU end first. *)

val check_invariants : t -> unit
(** Raise [Failure] on any broken invariant, including {!Acm}'s. *)
