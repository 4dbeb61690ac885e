(** ALLOC-LRU comparison: Figure 6 ("is swapping necessary?").

    The same smart mixes run under two-level replacement with the
    ALLOC-LRU allocation policy (no swapping, no placeholders) are
    compared to LRU-SP; the paper normalises ALLOC-LRU's totals to
    LRU-SP = 1.0 and finds ALLOC-LRU mostly worse. *)

type row = {
  combo : string;
  mb : float;
  lru_sp : Measure.m;
  alloc_lru : Measure.m;
}

val grid : ?sizes:float list -> ?combos:string list list -> unit -> row list Measure.t
(** Each smart combination at each cache size, under LRU-SP then
    ALLOC-LRU. Defaults: the four cache sizes and the paper's five
    combinations. *)

val print : Format.formatter -> row list -> unit
