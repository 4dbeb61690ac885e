(** Hash table over packed block ids ({!Block.pack}) that iterates in
    exactly the order of a [(Block.t, _) Hashtbl.t] fed the same
    replace/remove sequence.

    The ACM keeps each manager's resident set in one of these: its fold
    order is observable ([set_priority] relinks blocks in it, and the
    upcall chooser receives it), so the table must not reorder anything,
    while the per-reference path must not build a [Block.t] record just
    to hash it. *)

val hash : int -> int
(** [hash (Block.pack b) = Hashtbl.hash b] for every packable block:
    the runtime's structural hash of the two-field record, recomputed
    from the packed id with no allocation and no C call. *)

include Hashtbl.S with type key = int
