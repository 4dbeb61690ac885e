(** Placeholder-protection experiment: Table 1 ("are placeholders
    necessary?").

    A foreground oblivious ReadN (N ∈ {390, 400, 490, 500}) runs
    concurrently with a background Read300, at the 6.4 MB cache size,
    under three settings:

    - Oblivious   — Read300 uses the kernel's LRU (no manager);
    - Unprotected — Read300 foolishly uses MRU and the kernel runs
                    LRU-SP {e without} placeholders (LRU-S);
    - Protected   — Read300 foolishly uses MRU under full LRU-SP.

    If placeholders work, the Protected row's I/O counts return to the
    Oblivious row's level. *)

type setting = Oblivious | Unprotected | Protected

type row = {
  setting : setting;
  n : int;  (** the foreground ReadN's N *)
  foreground : Measure.m;
  placeholders_used : float;  (** mean per run *)
}

val grid : ?cache_mb:float -> ?ns:int list -> unit -> row list Measure.t
(** Each setting at each N. Defaults: the 6.4 MB cache and N ∈ {390,
    400, 490, 500}. *)

val setting_name : setting -> string

val print : Format.formatter -> row list -> unit
