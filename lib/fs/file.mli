(** File metadata.

    Files are laid out contiguously on one disk (a simple extent
    allocator): block [i] of the file lives at disk block
    [start_block + i]. Contiguous layout is what a freshly-restored
    FFS-style file system gives large files, and it makes sequential
    scans pay sequential-transfer costs, as the paper's workloads do. *)

type id = Acfc_core.Block.file

type t = {
  id : id;
  name : string;
  mutable size_bytes : int;
  reserve_blocks : int;  (** allocated extent; the file may grow into it *)
  start_block : int;  (** first disk block of the extent *)
  disk : Acfc_disk.Disk.t;
  owner : Acfc_core.Pid.t option;
      (** process charged for write-backs of this file's blocks *)
  mutable unlinked : bool;
  mutable seq_cursor : int;
      (** last block index read; the file system uses it to detect
          sequential access for read-ahead *)
  mutable readahead_enabled : bool;
      (** per-file read-ahead switch, cleared by {!Advice.Random} *)
}

val id : t -> id

val name : t -> string

val size_bytes : t -> int

val size_blocks : t -> int
(** Number of (whole or partial) blocks currently in the file. *)

val block_of_offset : byte:int -> int
(** Block index containing byte offset [byte]. *)

val packed_key : t -> index:int -> int
(** The packed key ({!Acfc_core.Block.pack}) of the file's block
    [index], built without a [Block.t]. Raises [Invalid_argument] on a
    negative index or one past [Block.max_packed_index]. *)

val disk_addr : t -> index:int -> int
(** Absolute disk block address of file block [index]. *)

val pp : Format.formatter -> t -> unit
