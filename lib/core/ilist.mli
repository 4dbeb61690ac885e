(** Intrusive doubly-linked lists over shared int-array link columns.

    Elements are integer slots, the prev/next pointers live in a shared
    {!store} (two parallel int columns, typically owned by a {!Ctab}),
    and a list handle is three ints. Linking, unlinking and moving are
    O(1) and allocation-free.

    By the cache's convention the {e front} of a list is the
    most-recently-used end and the {e back} the least-recently-used end.

    A slot may belong to at most one list per store at a time; callers
    track membership themselves (e.g. with a flag column). Operations on
    slots that are not in the given list silently corrupt it — the
    random-op property tests against a list model in
    [test/test_ilist.ml] and [test/test_ctab.ml] and the structure
    walks in [check_invariants] are the safety net. *)

val nil : int
(** The null slot, [-1]. *)

type store = { mutable prev : int array; mutable next : int array }

type t = { mutable front : int; mutable back : int; mutable size : int }

val make_store : int -> store

val grow_store : store -> int -> unit
(** [grow_store s cap] widens both columns to at least [cap] slots,
    preserving contents. No-op if already wide enough. *)

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val front : t -> int
(** {!nil} when empty. *)

val back : t -> int

val push_front : store -> t -> int -> unit

val push_back : store -> t -> int -> unit

val remove : store -> t -> int -> unit

val move_front : store -> t -> int -> unit

val move_back : store -> t -> int -> unit

val next_toward_front : store -> int -> int
(** Walk from the back (LRU end) toward the front; {!nil} at the front.
    Victim selection uses this to skip unevictable blocks. *)

val next_toward_back : store -> int -> int

val swap : store -> t -> int -> int -> unit
(** [swap s t a b] exchanges the positions of slots [a] and [b] in [t]
    (both must be members), the LRU-SP "swapping" step. Adjacent slots
    are handled. *)

val iter : (int -> unit) -> store -> t -> unit
(** Front (MRU) to back (LRU); safe against removal of the visited
    slot. *)

val to_list : store -> t -> int list

val mem : store -> t -> int -> bool
(** O(n) walk — for invariant checks and tests only. *)
