(** The unified policy registry: every replacement core, stock and
    adaptive, addressable by name from the offline lab, the live
    manager path, scenarios, the CLI and the bench tournament. *)

type entry = (module Policy_core.CORE)

val all : entry list
(** Registration order: the eight stock policies (LRU, MRU, FIFO,
    CLOCK, LRU-2, 2Q, RAND, OPT) followed by the adaptive three (ARC,
    AWRP, PERCEPTRON). *)

val name : entry -> string

val summary : entry -> string

val adaptive : entry -> bool

val needs_future : entry -> bool
(** True for OPT: it needs the full future stream, so it can replay
    offline traces but cannot run as a live manager. *)

val names : string list
(** Registry names in registration order. *)

val find : string -> (entry, string) result
(** Case-insensitive lookup. The error message lists the valid names
    and, when some registered name is close (edit distance <= 2),
    suggests it — the scenario codec surfaces the same message,
    prefixed with its [$.path]. *)
