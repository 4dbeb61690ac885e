(** Cache block identity.

    A block is one 8 KB unit of one file: the pair (file id, block index
    within the file). Files are named by integer ids handed out by the
    file-system layer. *)

type file = int
(** File identifier. *)

type t = { file : file; index : int }

val make : file:file -> index:int -> t
(** Raises [Invalid_argument] on a negative index or file id. *)

val file : t -> file

val index : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val filler : t
(** Block 0 of file 0, statically allocated: the initial value for an
    array of blocks that is filled afterwards. [Array.make n b] of more
    than 256 elements first runs a minor collection when [b] is young,
    so that the major-heap array holds no young pointer; from [filler]
    it does not. *)

val pack : t -> int
(** One non-negative int per block, ordered like {!compare} (file then
    index), for the columnar core's int-keyed tables. Raises
    [Invalid_argument] beyond 2^30 files or 2^32 blocks per file. *)

val pack_ids : file:file -> index:int -> int
(** [pack (make ~file ~index)] without building the record, for
    lookups: [-1], which no packed key equals, where {!make} or {!pack}
    would raise. *)

val unpack : int -> t
(** Inverse of {!pack}. *)

val packed_file : int -> file
(** [file (unpack p)] without building the record. *)

val packed_index : int -> int
(** [index (unpack p)] without building the record. *)

val max_packed_index : int
(** The largest block index {!pack} accepts, 2{^32} - 1. *)

val pp : Format.formatter -> t -> unit
