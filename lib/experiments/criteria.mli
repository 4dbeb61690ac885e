(** The paper's three criteria for a sound global allocation policy
    (Sec. 2), checked mechanically against the running system:

    1. {e Oblivious processes do no worse than under the existing LRU
       policy} — an oblivious process paired with smart partners on its
       own disk must see the same I/Os and no worse elapsed time than
       with oblivious partners.
    2. {e Foolish processes should not hurt other processes} — an
       oblivious victim's I/Os under LRU-SP with a foolish neighbour
       must stay at its oblivious-neighbour level (the placeholder
       guarantee; the paper itself notes elapsed time is only partially
       protected, so only I/Os are checked).
    3. {e Smart processes never perform worse} — every application's
       smart I/Os are bounded by its oblivious I/Os at every cache size.

    Criterion 1 runs Table 4's grid ({!Smart_oblivious}) and criterion
    3 the {!Single} grid at 6.4 and 16 MB. Each check returns measured
    numbers and a verdict, so the bench can print the paper's criteria
    as a table. *)

type verdict = { criterion : string; detail : string; measured : string; pass : bool }

val criterion3 : ?apps:string list -> unit -> verdict list Measure.t
(** One verdict per (application, cache size); [apps] defaults to all
    eight. *)

val grid : unit -> verdict list Measure.t
(** Criterion 1 (one verdict per partner: din, cs2, gli, ldk), then 2
    (one per foreground ReadN size), then 3. *)

val print : Format.formatter -> verdict list -> unit
