(** Discrete-event simulation engine with lightweight processes.

    Simulated processes ("fibers") are plain OCaml functions that may call
    the blocking operations of this module ({!delay}, {!delay_until},
    {!park}, {!park_keyed}) and of the primitives built on top of them
    ({!Ivar}, {!Resource}). Blocking is implemented with OCaml 5 effect handlers:
    the fiber's continuation is captured and resumed by a later event, so
    simulated code reads like straight-line systems code.

    Time is virtual, a [float] in seconds. Events scheduled for the same
    instant fire in FIFO order, which makes runs deterministic. *)

(** The engine's specialised event queue: a binary min-heap on
    (time, seq) as parallel arrays — unboxed float times, int seqs and a
    payload column — so pushes and pops allocate nothing. Exposed for
    the property tests, which replay random sequences against the
    generic {!Heap}. *)
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
    {!wake_key} names its key. Must be called from a fiber. *)

val wake_key : t -> int -> unit
(** Schedule the fiber parked under [key] to resume at the current
    instant, routed like {!wake_one}: one event, in FIFO order with
    other events due now. Raises [Invalid_argument] if no fiber is
    parked under [key]; nothing is queued then. *)

(** {2 Wait queues}

    A FIFO of blocked fibers owned by the engine: the primitive under
    {!Ivar}, the file system's in-flight reads and the fleet's remote
    requests. A parked fiber's continuation sits in the queue as is;
    waking it moves it to the run queue at the current instant (the
    ready ring when nothing queued is due sooner), where the run loop
    resumes it directly. A parked fiber is flagged blocked
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

val wake_at : t -> waitq -> at:float -> unit
(** Schedule the longest-parked fiber to resume at virtual time [at],
    routed like {!schedule}: one event, after every event already
    scheduled for [at]. Lets a coordinator hand a parked fiber its
    response time from outside the engine's run, with no closure per
    wait. Raises [Invalid_argument] if no fiber is parked or [at] is in
    the past. *)

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
