(** Published numbers from the paper, for paper-vs-measured reporting,
    and the cache sizes and application mixes its grids sweep.

    Tables 5 and 6 (the appendix raw data behind Figure 4) are stored in
    full; Tables 1–3 as published. Values are averages as printed. *)

val cache_sizes_mb : float list
(** The four buffer-cache configurations: 6.4, 8, 12, 16 MB. *)

val fig5_combos : string list list
(** The nine concurrent combinations of Sec. 5.3. *)

val fig6_combos : string list list
(** The five combinations re-run under ALLOC-LRU in Sec. 6.1. *)

val combo_name : string list -> string
(** "cs2+gli" etc. *)

val table5 : (string * float array * float array) list
(** (app, original elapsed seconds per size, LRU-SP elapsed). *)

val table6 : (string * float array * float array) list
(** (app, original block I/Os per size, LRU-SP block I/Os). *)

val lookup_elapsed : string -> mb:float -> (float * float) option
(** (original, lru_sp) for one app and cache size. *)

val lookup_ios : string -> mb:float -> (float * float) option

val table1_elapsed : (string * float array) list
(** Rows Oblivious / Unprotected / Protected; columns Read390, Read400,
    Read490, Read500 (seconds). *)

val table1_ios : (string * float array) list

val table2_elapsed : (string * float array) list
(** Rows Oblivious / Foolish (the Read300's policy); columns din, cs2,
    gli, ldk (seconds). *)

val table2_ios : (string * float array) list

val table3_read300_elapsed : (string * float array) list
(** Rows Oblivious / Smart (the partner apps' mode); columns din, cs2,
    gli, ldk: Read300's elapsed seconds, one disk. *)

val table4_read300_elapsed : (string * float array) list
(** Same, two disks. *)
