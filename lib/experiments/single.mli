(** Single-application experiments: Figure 4 and Tables 5–6.

    Each application runs alone, five-run averaged, on its paper disk,
    at each buffer-cache size, twice: under the original kernel
    (global LRU, no application control) and under LRU-SP with the
    application's smart strategy. *)

type row = {
  app : string;
  mb : float;
  original : Measure.m;
  controlled : Measure.m;
}

val grid : ?sizes:float list -> ?apps:string list -> unit -> row list Measure.t
(** Each application at each cache size, under the original kernel
    then LRU-SP. Defaults: the paper's four cache sizes and all eight
    applications. *)

val print_elapsed : Format.formatter -> row list -> unit
(** Table 5 reproduction: measured elapsed seconds with ratios, paper
    values alongside. *)

val print_ios : Format.formatter -> row list -> unit
(** Table 6 reproduction. *)

val print_fig4 : Format.formatter -> row list -> unit
(** Figure 4 as numbers: normalised elapsed and block I/Os (original =
    1.0) per application and cache size, paper ratios alongside. *)
