(** The experiment table: every artifact [acfc-run report] and the
    bench harness regenerate, with the grid it runs and how it prints.

    [report --list], [report NAME|all], the bench's main loop and its
    [scenario_hash] all read this one table, so an artifact's
    fingerprint is the hash of the list its run executes. *)

type options = {
  runs : int;  (** cold-start runs averaged per data point *)
  sizes : float list;  (** cache sizes (MB) for the size sweeps *)
  jobs : int option;
      (** domains used to run grid cells concurrently; [None] defers to
          {!Acfc_par.Pool.default_jobs} (the [ACFC_JOBS] environment
          variable, else sequential). Results are byte-identical for
          every value. *)
}

val default : options
(** 3 runs, the paper's four cache sizes, [jobs = None]. *)

val quick : options
(** 1 run, sizes 6.4 and 16 MB only — for smoke tests. [jobs = None]. *)

type artifact = {
  name : string;
  doc : string;  (** one line, for [report --list] *)
  paper : bool;
      (** one of the paper's nine tables and figures, which
          [acfc-run report all] runs; the ablations and criteria are
          not *)
}

val artifacts : artifact list
(** Every artifact, in table order: fig4, table5 and table6 (which
    share one grid), fig5, fig6, table1–table4, ablations, criteria. *)

val scenarios : options -> string list -> Acfc_scenario.Scenario.t list
(** What {!run} executes for these artifacts, in run order: each grid
    once, in table order. Raises [Invalid_argument] on an unknown
    name. *)

val run : options -> Format.formatter -> string list -> unit
(** Run the named artifacts' grids on one pool and print the artifacts
    in table order. Each paper artifact, and every artifact after the
    first, opens with a rule. Raises [Invalid_argument] on an unknown
    name. *)
