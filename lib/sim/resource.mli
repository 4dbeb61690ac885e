(** One-server FCFS resource as a reservation calendar, with queueing
    statistics.

    Models the CPU and the SCSI bus. Every {!use} knows its service time
    when it arrives, so under first-come first-served its start, the
    later of now and the moment the server frees, and its finish are
    known then too. A use therefore books its slot on arrival and sleeps
    straight to its finish: one event, with no park and no handoff.
    Utilisation and waiting-time statistics are integrated over virtual
    time, which the experiment harness uses to report device load. *)

type t

val create : Engine.t -> ?name:string -> unit -> t

val name : t -> string

val use : t -> service:float -> unit
(** [use t ~service] reserves the server for [service] seconds from the
    later of now and the end of the last reservation, and blocks the
    calling fiber until that reservation ends. Raises
    [Invalid_argument], reserving nothing, if [service] is negative or
    not finite. Must be called from a fiber. *)

val queue_length : t -> int
(** Reservations made but not yet started. *)

(** {2 Statistics} *)

val served : t -> int
(** Reservations started so far. *)

val busy_time : t -> float
(** Server-seconds of work up to now: one [end - start] term per busy
    period, the open period split where this is read. Divide by
    elapsed time for utilisation. *)

val total_wait : t -> float
(** Sum over started reservations of the time from arrival to start. *)
