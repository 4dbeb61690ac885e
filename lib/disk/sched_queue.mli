(** Indexed pending-request queue for the disk's dispatch decision.

    Replaces the per-completion fold/filter over an unsorted waiter list
    with an O(1) FIFO (FCFS) or an address-sorted map with per-address
    FIFOs (SCAN), reproducing the original picker's choices exactly:
    minimum arrival order for FCFS; nearest address in the sweep
    direction, ties to the oldest arrival, reversing the sweep when the
    direction is empty, for SCAN. See docs/PERF.md for the measured
    effect. *)

type discipline = Fcfs | Scan

type t
(** A queue of int keys, each waiting for a block address. *)

val create : discipline -> t

val discipline : t -> discipline

val length : t -> int
(** Keys currently queued. O(1). *)

val is_empty : t -> bool

val sweep_up : t -> bool
(** Current SCAN sweep direction (true for FCFS queues, where it is
    never consulted). *)

val add : t -> addr:int -> int -> unit
(** [add t ~addr key] enqueues [key] for block address [addr]. Arrival
    order is the [add] order. O(1) amortised for FCFS, O(log n) for
    SCAN; no allocation once the queue has grown to its depth. *)

val pick : t -> head:int -> int
(** Remove and return the key the drive serves next, given the head
    parked at block [head]. May reverse the sweep direction (SCAN).
    O(1) for FCFS, O(log n) for SCAN, allocation-free. Raises
    [Invalid_argument] if the queue is empty. *)

(** The original unsorted-list picker, kept verbatim (over any payload)
    as the reference for equivalence tests and the bench [check]
    replay. O(n) per pick. *)
module Naive : sig
  type 'a t

  val create : discipline -> 'a t

  val length : 'a t -> int

  val sweep_up : 'a t -> bool

  val add : 'a t -> addr:int -> 'a -> unit

  val pick : 'a t -> head:int -> 'a option
end
