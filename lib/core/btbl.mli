(** The structural hash of a block, from its packed id ({!Block.pack}).

    The ACM keeps each manager's block set in the fold order of the
    stdlib [(Block.t, _) Hashtbl.t] its predecessor kept: that order is
    observable ([set_priority] relinks blocks in it, and the upcall
    chooser receives it), and it is ordered first by bucket, i.e. by
    this hash masked to the bucket count. *)

val hash : int -> int
(** [hash (Block.pack b) = Hashtbl.hash b] for every packable block:
    the runtime's structural hash of the two-field record, recomputed
    from the packed id with no allocation and no C call. *)
