(** Concurrent-application experiments: Figure 5.

    Each combination runs with every application applying its smart
    strategy under LRU-SP, against the same mix oblivious under the
    original kernel; the paper reports total elapsed time and total
    block I/Os normalised to the original kernel. *)

type row = {
  combo : string;
  mb : float;
  original : Measure.m;
  controlled : Measure.m;
}

val grid : ?sizes:float list -> ?combos:string list list -> unit -> row list Measure.t
(** Each combination at each cache size, under the original kernel
    then LRU-SP. Defaults: the four cache sizes and the paper's nine
    combinations. *)

val print : Format.formatter -> row list -> unit
