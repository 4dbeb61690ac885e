(** Do smart processes hurt oblivious ones? Tables 3 and 4.

    An oblivious Read300 runs concurrently with each of din, cs2, gli,
    ldk, which are either oblivious (original-kernel behaviour for both)
    or smart (LRU-SP). The tables report Read300's elapsed time: on one
    shared disk (Table 3) smart partners help — fewer I/Os mean a less
    loaded disk; with Read300 on its own disk (Table 4) the effect
    nearly vanishes. *)

type row = {
  app : string;  (** the partner application *)
  partner_smart : bool;
  two_disks : bool;  (** Table 4 configuration: Read300 on the RZ26 *)
  read300 : Measure.m;
}

val grid :
  ?cache_mb:float -> ?apps:string list -> two_disks:bool -> unit -> row list Measure.t
(** An oblivious Read300 (on disk 1 when [two_disks]) beside each
    partner on disk 0, oblivious under global LRU then smart under
    LRU-SP. Defaults: the 6.4 MB cache and din, cs2, gli, ldk. *)

val print : Format.formatter -> row list -> unit
(** Pass rows from one or both configurations; they are grouped. *)
