(** Bidirectional JSON codecs: one description per strict format.

    A ['a t] yields both the canonical encoder and the strict decoder,
    so [decode (encode v) = Ok v] holds by construction (encoders raise
    [Invalid_argument] on the values they could not write back: an
    integer beyond {!int_limit} or a non-finite float) and a format's
    member order, defaults and diagnostics are written once. Decode
    errors read ["<label>: <message> at <$.path>"]; the label names the
    outermost document, so a wir program embedded in a scenario reports
    scenario-rooted paths.

    Objects are built member by member, e.g.
    [seal (obj (fun n s -> { n; s }) |> schema "acfc-x/1"
    |> req "n" (fun r -> r.n) string |> dflt "s" ~default:0 (fun r -> r.s) int)].
    Declaration order is the canonical member order and the decode
    order. A sealed object rejects duplicate and unknown members before
    decoding any of them. *)

type 'a t

(** {2 Running a codec} *)

val encode : 'a t -> 'a -> Json.t

val decode : label:string -> 'a t -> Json.t -> ('a, string) result

val to_string : 'a t -> 'a -> string
(** Single-line canonical JSON: the bytes a format hashes. *)

val of_string : label:string -> 'a t -> string -> ('a, string) result
(** A syntax error reads ["<label>: invalid JSON: …"]. *)

val save : 'a t -> 'a -> string -> unit
(** Write {!to_string} plus a trailing newline to a file. *)

val load : label:string -> 'a t -> string -> ('a, string) result
(** An I/O error reads ["<label>: <reason>"]. *)

val error : label:string -> string * string -> string
(** [error ~label (path, msg)]: a diagnostic rendered as {!decode}
    renders it, for checks run outside a codec. *)

(** {2 Scalars and enums} *)

val int : int t
(** Integral numbers of magnitude at most {!int_limit}. Encoding a
    larger one raises [Invalid_argument], since it would not read
    back. *)

val int_limit : int
(** 2{^53}: within it every integer survives the JSON number round
    trip. *)

val float : float t
(** Finite numbers. Encoding NaN or an infinity raises
    [Invalid_argument]. *)

val string : string t

val bool : bool t

val enum :
  what:string -> ?expected:string -> ('a -> string) -> (string -> 'a option) -> 'a t
(** A string through a [to_string]/[of_string] pair, which keeps its
    aliases. A rejected string is
    ["unknown <what> \"s\" (expected <expected>)"]. *)

val table : what:string -> (string * 'a) list -> 'a t
(** An {!enum} over a fixed table of names; a rejected string lists
    them, e.g. ["(expected fcfs or scan)"]. *)

val named : what:string -> expected:string -> (string * 'a) list -> 'a t -> 'a t
(** [named ~what ~expected table c]: a value equal to an entry of
    [table] is written as its name, any other through [c]; a JSON
    string is read through [table], anything else through [c]. *)

(** {2 Containers} *)

val list : ?expected:string -> 'a t -> 'a list t
(** Elements report at [path[i]]. [expected] words the non-list error
    (default ["a list"]). *)

val dict : ?expected:string -> 'k t -> 'v t -> ('k * 'v) list t
(** An object with free member names, in document order. Names go
    through the key codec as JSON strings and report at the object's
    path; values report at [path.name]. Repeated names are the
    caller's to refuse. *)

(** {2 Objects} *)

type ('o, 'f) fields
(** Members read from an ['o] when encoding and fed, in order, to a
    constructor of type ['f] when decoding. *)

val obj : 'f -> ('o, 'f) fields

val req : string -> ('o -> 'a) -> 'a t -> ('o, 'a -> 'f) fields -> ('o, 'f) fields
(** Absent is ["missing required field \"name\""] at the object. *)

val opt :
  string -> ('o -> 'a option) -> 'a t -> ('o, 'a option -> 'f) fields -> ('o, 'f) fields
(** Written when [Some]; absent reads [None]. *)

val dflt :
  string -> default:'a -> ('o -> 'a) -> 'a t -> ('o, 'a -> 'f) fields -> ('o, 'f) fields
(** Omitted when structurally equal to [default]; absent reads
    [default]. *)

val schema : string -> ('o, 'f) fields -> ('o, 'f) fields
(** A required ["schema"] member pinned to the given version. *)

val flat : ('o -> 'a) -> ('a, 'a) fields -> ('o, 'a -> 'f) fields -> ('o, 'f) fields
(** Another description's members, inlined in this object. *)

val seal : ?expected:string -> ('o, 'o) fields -> 'o t
(** Close an object. [expected] words the non-object error (default
    ["an object"]). *)

val seal_result : ?expected:string -> ('o, ('o, string * string) result) fields -> 'o t
(** {!seal} for a constructor that can refuse its members; its
    [Error (sub, msg)] reports at the object's path followed by [sub]. *)

(** {2 Tagged variants} *)

type 'a case

val case : string -> ('a -> 't option) -> ('t, 'a) fields -> 'a case
(** [case tag proj fields]: values [proj] accepts carry this tag, and
    [fields] reads their members from the projection and builds the
    variant value directly. *)

val variant : tag:string -> what:string -> 'a case list -> ('a, 'a) fields
(** Members of a value tagged by the string member [tag], written
    first; an unknown tag is ["unknown <what> \"x\" (expected a, b or
    c)"] at [path.tag]. {!seal} it, or {!flat} it into an object to add
    a second tag. *)

(** {2 Checks and recursion} *)

val conv : ('b -> 'a) -> ('a -> ('b, string * string) result) -> 'a t -> 'b t
(** Through a projection and a checked injection, whose [Error (sub,
    msg)] reports at the value's path followed by [sub]. *)

val check : ('a -> (unit, string * string) result) -> 'a t -> 'a t
(** A post-decode check, reported like {!conv}'s. *)

val expect : string -> 'a t -> 'a t
(** [expect what c]: [c], with any error it reports, at any depth,
    replaced by ["expected <what>"] at the value's path, for a value
    that is right or wrong as a whole (a [[min, max]] pair). *)

val fix : ('a t -> 'a t) -> 'a t
(** A recursive description (op lists inside ops). *)
