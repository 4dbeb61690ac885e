(** Discrete-event simulation engine with lightweight processes.

    Simulated processes ("fibers") are plain OCaml functions that may call
    the blocking operations of this module ({!delay}, {!delay_until},
    {!park}, {!park_keyed}) and of the primitives built on top of them
    ({!Ivar}, {!Resource}). Blocking is implemented with OCaml 5 effect handlers:
    the fiber's continuation is captured and resumed by a later event, so
    simulated code reads like straight-line systems code.

    A process that blocks only between steps runs instead as a prebuilt
    callback {!job} that reschedules itself ({!schedule_job}), with no
    stack of its own: the disk drive's stages, read-ahead, write-back,
    the update daemon and the fleet's client workloads run this way.

    Time is virtual, a [float] in seconds. Events scheduled for the same
    instant fire in FIFO order, which makes runs deterministic. *)

(** The engine's specialised event queue: a binary min-heap on
    (time, seq) as parallel arrays — unboxed float times, int seqs and a
    payload column — so pushes and pops allocate nothing. Exposed for
    the property tests, which replay random sequences against a sorted
    list. *)
module Equeue : sig
  type job =
    | Nop
    | Thunk of (unit -> unit)
    | Cont of (unit, unit) Effect.Deep.continuation

  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> time:float -> seq:int -> job -> unit
  (** Ties on [time] pop in ascending [seq] order; the engine feeds a
      globally increasing seq, making same-instant events FIFO. *)

  val top_time : t -> float
  (** Raises [Invalid_argument] when empty. *)

  val pop : t -> job
  (** Pop the least (time, seq) job. Raises [Invalid_argument] when
      empty. *)
end

type t
(** A simulation instance: virtual clock plus pending-event queue.

    Internally events live in an {!Equeue} plus a ready ring: a callback
    scheduled for the current instant when nothing pending could run
    before it skips the heap entirely, so batched completions (an ivar
    broadcast, a disk queue handoff) cost one ring slot per waiter
    instead of one heap operation each. *)

exception Deadlock of string
(** Raised by {!run} when fibers remain blocked but no event can ever
    wake them. The payload names the stuck fibers. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install the observability sink. The engine points the sink's clock
    at its own virtual clock (every event emitted anywhere in the
    machine is then stamped with simulated time), registers gauges for
    the scheduler (clock, live/waiting fibers, processed and pending
    events), and emits a {!Acfc_obs.Trace.Fiber} event per fiber spawn
    and finish. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule t ~at f] runs callback [f] at virtual time [at]. [at] may
    not be in the past. Callbacks must not block; use {!spawn} for code
    that does. *)

type job
(** A callback built once, to be scheduled again and again. *)

val job : (unit -> unit) -> job
(** [job f] wraps callback [f] for {!schedule_job}. Like a {!schedule}
    callback, [f] must not block. *)

val schedule_job : t -> at:float -> job -> unit
(** [schedule_job t ~at j] runs [j]'s callback at virtual time [at],
    exactly as [schedule t ~at f] would: one event, after every event
    already scheduled for [at]. [at] may not be in the past. Inlined,
    and the job is built beforehand, so a call allocates nothing: no
    boxed time, no closure.

    A callback that reschedules its own job at [now t +. dt] is a
    process whose [delay dt] costs no fiber: its next run fires where
    the fiber's {!delay} would have resumed, at the same event count
    (see {!delay}'s in-place rule, which only skips the queue). The
    fleet's client workloads and the disk drive's stages run this way,
    and a coordinator outside the engine's run can schedule such a job
    at a response time. *)

val schedule_now : t -> job -> unit
(** [schedule_now t j] is [schedule_job t ~at:(now t) j]: one event at
    the current instant, after every event already due now. A woken
    fiber, a spawned fiber's start and a disk request handed the drive
    all take this slot. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] starts a new fiber running [f] at the current virtual
    time. [name] is used in {!Deadlock} diagnostics. *)

val delay : t -> float -> unit
(** [delay t dt] blocks the calling fiber for [dt] seconds of virtual
    time. [dt] must be non-negative; [dt = 0] returns at once with no
    event. Must be called from a fiber: from a {!schedule} callback it
    raises [Effect.Unhandled].

    When the wake-up would provably be the next event the run loop
    executes, the fiber resumes in place: the clock advances to the wake
    time and the event is counted, with no continuation captured and
    nothing queued. That holds when the ready ring is empty, every
    queued event is strictly later than the wake time and the wake time
    is within the current {!run}/{!run_until} horizon. Order, clock and
    {!events_processed} are exactly those of the queued path. *)

val delay_until : t -> float -> unit
(** [delay_until t at] blocks the calling fiber until virtual time [at],
    exactly as [delay t (at -. now t)] would if that difference were
    exact: one event, in place when {!delay}'s conditions hold. [at =
    now t] returns at once with no event; an earlier [at] (or a NaN)
    raises [Invalid_argument]. Inlined, so a wake time computed by the
    caller is never boxed. *)

val park_keyed : t -> (int -> unit) -> unit
(** [park_keyed t register] blocks the calling fiber under a key, its
    fiber id: a small non-negative int, unique among live fibers (a
    finished fiber's id is reused). [register key] runs at once, before
    any other job, so the owner of the wait can record the key: a disk
    queue stores it beside the request's address. Pass a [register]
    built once per owner, and the wait costs no closure and no record.
    The fiber is flagged blocked, so {!Deadlock} names it until a
    {!resume_key} names its key. Must be called from a fiber. *)

val resume_key : t -> int -> unit
(** [resume_key t key] resumes the fiber parked under [key] at once,
    inside the running job, and returns when that fiber next blocks or
    finishes. No event is queued or counted: the fiber goes on in the
    caller's event, as if that event were its own wake-up. A disk
    completion resumes its caller this way.

    The call must be the running job's last action. The fiber may then
    take its delays in place ({!delay}), which is sound only when
    nothing else runs in this job after it blocks. Raises
    [Invalid_argument] when called from a fiber, or when no fiber is
    parked under [key]; nothing runs then. *)

(** {2 Wait queues}

    A FIFO of blocked fibers owned by the engine: the primitive under
    {!Ivar} and the file system's in-flight reads. A parked fiber's
    continuation sits in the queue as is; waking it moves it to the run
    queue at the current instant (the ready ring when nothing queued is
    due sooner), where the run loop resumes it directly. A parked fiber is flagged blocked
    in the engine's fiber registry, so {!Deadlock} names it. *)

type waitq

val waitq : unit -> waitq
(** A new, empty queue. Allocates its storage on the first {!park}. *)

val park : t -> waitq -> unit
(** Block the calling fiber at the back of the queue until a {!wake_one}
    or {!wake_all} reaches it. Must be called from a fiber. *)

val wake_one : t -> waitq -> bool
(** Schedule the longest-parked fiber to resume at the current instant,
    in FIFO order with other events due now. [false] if none is
    parked. *)

val wake_all : t -> waitq -> unit
(** {!wake_one} until the queue is empty, in FIFO order. *)

val waiters : waitq -> int
(** Fibers currently parked on the queue. *)

val run : t -> unit
(** Run until no events remain. Raises {!Deadlock} if blocked fibers
    remain when the event queue drains. Exceptions escaping a fiber
    propagate out of [run]. *)

val run_until : t -> float -> unit
(** [run_until t horizon] processes events up to and including time
    [horizon], then stops (without deadlock detection). A fiber whose
    wake time is past [horizon] stays queued and resumes at its wake
    time in a later call. *)

val fiber_count : t -> int
(** Number of fibers spawned and not yet finished. *)

val events_processed : t -> int
(** Total events executed so far (a cheap progress/cost metric),
    in-place {!delay} resumptions included: the count is the same as if
    every wake-up had gone through the queue. *)

val next_event_time : t -> float
(** Time of the earliest pending event (ready-ring entries are due at
    the current instant), or [infinity] when nothing is pending. Lets a
    coordinator running several engines under {!run_until} skip the
    engines, and the epochs, with no work due. Inlined, so the result
    stays unboxed at the call site. *)
