(** Shared SCSI bus.

    The paper's testbed connects both disks to a single SCSI bus. Disks
    seek and rotate independently but hold the bus during data transfer,
    so concurrent transfers serialise. One {!t} may be shared by any
    number of {!Disk.t}. *)

type t

val create : Acfc_sim.Engine.t -> ?name:string -> unit -> t

val transfer : t -> duration:float -> unit
(** Hold the bus for [duration] seconds, from when it frees (blocking
    fiber call). The slot is booked when the call is made: a drive
    calls it when its positioning ends. *)

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Register the bus statistics (busy time, contended wait, transfers
    started, transfers booked but not started) as gauges on the sink's
    metrics registry. *)
