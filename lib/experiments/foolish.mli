(** Effect of a foolish process on smart applications: Table 2.

    Each of din, cs2, gli, ldk (smart, LRU-SP) runs concurrently with a
    Read300 that is either oblivious (LRU) or foolish (MRU manager);
    the table reports the smart application's elapsed time and block
    I/Os. The paper finds degradation remains — from extra disk load
    and the foolish process's longer residence — motivating revocation. *)

type row = {
  app : string;
  bg_foolish : bool;
  smart_app : Measure.m;  (** the measured smart application *)
}

val grid : ?cache_mb:float -> ?apps:string list -> unit -> row list Measure.t
(** Each application beside the oblivious then the foolish Read300.
    Defaults: the 6.4 MB cache and din, cs2, gli, ldk. *)

val print : Format.formatter -> row list -> unit
