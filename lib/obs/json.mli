(** Minimal JSON values: just enough for the observability layer.

    The repository deliberately carries no third-party JSON dependency;
    traces, metric snapshots and bench results only need objects of
    numbers, strings and booleans. The printer and parser round-trip
    every value this library emits ([of_string (to_string v) = Ok v]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members, in emission order *)

val to_string : t -> string
(** Compact (single-line) rendering. Numbers that are exact integers
    print without a decimal point, so counters stay readable. *)

val pp : Format.formatter -> t -> unit
(** Same rendering as {!to_string}. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). The error
    string names the offending byte offset. Number literals that
    overflow a float (e.g. [1e999]) are rejected, so every parsed value
    prints back as JSON. *)

val equal : t -> t -> bool
(** Structural equality; object member {e order} is significant (this
    library always emits in a fixed order). *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** [member name (Obj _)] looks up a field; [None] on anything else. *)

val to_num : t -> float option

val to_int : t -> int option
(** [Num] fields that hold an exact integer of magnitude at most
    2{^53}. *)

val to_str : t -> string option

val to_bool : t -> bool option

val to_list : t -> t list option
