(** Experiment grids, the one runner behind every artifact, and the
    run summaries the paper reports (it averages 3–5 cold-start runs
    per data point).

    A grid lists the cells an experiment runs, in print order — each
    cell a scenario per seed — together with the map from their runs
    to the rows it prints. {!scenarios} and {!run} read that one list,
    so what the bench fingerprints is what runs. *)

type 'a t
(** A grid whose runs build an ['a] (its rows). *)

val cell : (int -> Acfc_scenario.Scenario.t) -> Acfc_workload.Runner.t list t
(** One cell: the scenario for each seed. It yields its runs in seed
    order. *)

val all : 'a t list -> 'a list t
(** The grids' cells, in list order. *)

module Syntax : sig
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  (** Map a grid's rows. *)

  val ( and+ ) : 'a t -> 'b t -> ('a * 'b) t
  (** Both grids' cells, the first's first. *)
end

val scenarios : runs:int -> 'a t -> Acfc_scenario.Scenario.t list
(** Every scenario the grid runs, in run order: cells in grid order,
    seeds 0 .. [runs] − 1 within each. Raises [Invalid_argument] unless
    [runs] is positive. *)

val run : ?jobs:int -> runs:int -> 'a t -> 'a
(** Run {!scenarios} on one pool of [jobs] domains (default
    {!Acfc_par.Pool.default_jobs}) and build the rows from the results.
    At [jobs = 1] each scenario runs in place, in order; every [jobs]
    value builds the same rows. *)

type m = { elapsed : Acfc_stats.Summary.t; ios : Acfc_stats.Summary.t }

val app_summary : Acfc_workload.Runner.t list -> index:int -> m
(** Elapsed/IO summary of the [index]-th application across runs. *)

val total_summary : Acfc_workload.Runner.t list -> m
(** Makespan and whole-system I/Os across runs. *)

val mean_ratio : m -> m -> float * float
(** [(elapsed ratio, ios ratio)] of two measurements' means —
    "normalised to the original kernel" in the paper's figures. *)

val f1 : float -> string
(** Format with one decimal. *)

val f2 : float -> string
(** Format with two decimals (the paper's ratio precision). *)

val i0 : float -> string
(** Format a mean count as a rounded integer. *)
