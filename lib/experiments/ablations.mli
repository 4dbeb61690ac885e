(** Ablation studies for the design choices DESIGN.md calls out, and for
    the paper's "future work" interactions (caching vs prefetching,
    write-back and disk scheduling — Sec. 8).

    Each is a grid of printable rows; {!grid} is all seven, in print
    order. *)

(** Read-ahead: same block I/Os, very different elapsed times. *)
type readahead_row = {
  ra_app : string;
  readahead : bool;
  ra_elapsed : float;
  ra_ios : int;
}

val readahead : ?apps:string list -> unit -> readahead_row list Measure.t

(** Disk scheduling: FCFS vs SCAN under a contended disk. *)
type sched_row = {
  sched : Acfc_disk.Disk.sched;
  combo : string;
  sc_makespan : float;
  sc_ios : int;
}

val disk_sched : unit -> sched_row list Measure.t

(** Update-daemon interval: how delayed write-back trades write traffic
    against data in flight (sort's deleted temporaries benefit from
    later flushes). *)
type update_row = { interval : float; up_ios : int; up_writes : int }

val update_interval : ?intervals:float list -> unit -> update_row list Measure.t

(** File layout: packed (fresh file system) vs scattered (aged), for
    the multi-file scan workloads. *)
type layout_row = {
  la_app : string;
  scattered : bool;
  la_elapsed : float;
  la_ios : int;
}

val layout : ?apps:string list -> unit -> layout_row list Measure.t

(** Clustered write-back: up to N contiguous dirty blocks per disk
    request (block-I/O counts unchanged; positioning amortised). *)
type cluster_row = { cl_size : int; cl_elapsed : float; cl_ios : int }

val write_clustering : ?sizes:int list -> unit -> cluster_row list Measure.t

(** Global allocation order: the paper's Sec. 7 claims the scheme works
    on a VM-style CLOCK list as well as on true LRU. *)
type order_row = {
  or_app : string;
  or_policy : Acfc_core.Config.alloc_policy;
  or_smart : bool;
  or_ios : int;
}

val global_order : ?apps:string list -> unit -> order_row list Measure.t

(** Revocation thresholds: how quickly the kernel defuses a foolish
    manager, and what that does to the foolish process itself and its
    victim. *)
type revocation_row = {
  threshold : Acfc_core.Config.revocation option;
  victim_ios : int;
  fool_ios : int;
  mistakes_caught : int;
}

val revocation : unit -> revocation_row list Measure.t

type sections
(** The seven tables, ready to print. *)

val grid : unit -> sections Measure.t
(** Every ablation above at its defaults, in print order: read-ahead,
    disk scheduling, update interval, clustered write-back, layout,
    global order, revocation. *)

val print : Format.formatter -> sections -> unit
