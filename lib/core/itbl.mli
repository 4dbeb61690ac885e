(** Open-addressing int -> int hash table for the cache hot path.

    Keys are non-negative ints (packed block ids, see {!Block.pack}),
    values are non-negative ints (table slots). Linear probing over a
    power-of-two array with backward-shift deletion, so the table holds
    no tombstones and a steady live count never rehashes; {!find} is
    allocation-free.

    Iteration order is probe-layout order and carries no meaning —
    anything order-sensitive must keep an explicit list. *)

type t

val create : int -> t
(** [create n] sizes the table for about [n] expected bindings. *)

val length : t -> int

val capacity : t -> int
(** Slots in the probe array. It only grows, and only when an insert
    takes the live count past 3/4 of it. *)

val find : t -> int -> int
(** [find t key] is the bound value, or [-1] if absent. Allocation-free.
    Values are non-negative by contract, so [-1] is unambiguous. *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** Insert or replace. [key] and the value must be non-negative. *)

val remove : t -> int -> unit
(** No-op if absent. *)

val clear : t -> unit

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f key value] in probe-layout order (meaningless —
    tests and invariant checks only). *)

val max_probe : t -> int
(** The longest probe sequence of any live key: the number of slots
    {!find} visits to reach it, counting its home slot and its own. 1
    means every key sits in its home slot. For tests of the hash's
    spread. *)
