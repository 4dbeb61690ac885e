(** Seeded synthetic workload generation.

    The paper's evaluation rests on eight hand-ported applications;
    every policy result in the repository is conditioned on those fixed
    demand streams. This module generates unlimited fresh-but-plausible
    applications instead: a deterministic, seeded generator that emits
    valid {!Acfc_wir.Wir.t} programs from a typed {!spec} covering the
    paper's access-pattern taxonomy (Sec. 5.3) — sequential, cyclic,
    hot/cold, random and access-once — under file-count, file-size and
    locality budgets, with a smart-vs-oblivious advise density knob.

    Determinism contract: [generate spec ~seed] is a pure function of
    the spec and the seed — same inputs give a bit-identical program
    (identical [acfc-wir/1] JSON, identical [Wir.hash]), on every
    machine. Corpora are therefore reproducible from a committed spec
    file plus a seed; see [examples/wirgen/].

    Specs serialise to a versioned JSON document ([acfc-wirgen/1]) with
    the same strict-parse discipline as scenario and wir files: unknown
    fields, bad enums and out-of-range values are rejected with their
    [$.path]. *)

(** The paper's access-pattern taxonomy. *)
type pattern =
  | Sequential  (** one pass over every file, in order *)
  | Cyclic  (** repeated full passes (cscope, dinero) *)
  | Hot_cold  (** skewed point reads: small hot set, large cold set *)
  | Random  (** uniform point reads over the whole extent *)
  | Access_once  (** read inputs once, write an output once (ld, sort) *)

val patterns : pattern list
(** All five, in the fixed order above. *)

val pattern_to_string : pattern -> string
(** ["sequential"], ["cyclic"], ["hot_cold"], ["random"],
    ["access_once"] — the spec-file enum values. *)

val pattern_of_string : string -> pattern option

(** What family of programs to draw. All budgets are inclusive
    [(min, max)] ranges sampled uniformly per program. *)
type spec = {
  name : string;  (** corpus name; prefixes every program name *)
  mix : (pattern * float) list;
      (** relative weight of each pattern (missing patterns weigh 0);
          at least one weight must be positive *)
  files : int * int;  (** files opened per program *)
  file_blocks : int * int;  (** blocks per file *)
  passes : int * int;  (** whole-data passes (loop trip budget) *)
  locality : float;
      (** hot-set fraction for hot/cold programs, in (0, 1] *)
  advise : float;
      (** fraction of programs that carry a caching strategy (advice
          ops); the rest are oblivious, in [0, 1] *)
}

val default : spec
(** The committed smoke family: every pattern weighted 1, 1–4 files of
    8–64 blocks, 2–4 passes, locality 0.25, advise 0.5. *)

val validate : spec -> (unit, string) result
(** Budget sanity: non-empty name, finite non-negative weights with a
    positive sum, [1 <= min <= max] ranges, locality in (0, 1], advise
    in [0, 1]. Errors are prefixed ["wirgen:"] with a [$.path]. *)

(** {2 Generation} *)

val generate : spec -> seed:int -> Acfc_wir.Wir.t
(** Draw one program. The result always passes {!Acfc_wir.Wir.validate}
    (this is fuzzed; see {!Fuzz}). Program names embed the seed
    ([<spec.name>-<pattern>-s<seed>]) so corpus members stay distinct.
    Raises [Invalid_argument] on an invalid spec. *)

val corpus : spec -> seed:int -> count:int -> Acfc_wir.Wir.t list
(** [count] programs; member [i] is [generate spec ~seed:(seed + i)],
    so every member is individually reproducible with {!generate}. *)

val has_advice : Acfc_wir.Wir.t -> bool
(** Does the program carry a caching strategy — any [Advise] op, or a
    [done_with] flag on a read/write? Decides the smart/oblivious role
    of a generated workload in {!scenario}. *)

val scenario :
  ?cache_blocks:int ->
  ?alloc_policy:Acfc_core.Config.alloc_policy ->
  spec ->
  seed:int ->
  count:int ->
  Acfc_scenario.Scenario.t
(** A runnable machine over a generated corpus: [count] inline
    workloads (each program carried whole in the scenario, smart iff it
    emits advice), default disks, [cache_blocks] capacity (default 819,
    the paper's 6.4 MB) under [alloc_policy] (default LRU-SP), and the
    corpus seed as the scenario seed. Serialise it with
    {!Acfc_scenario.Scenario.save} and it replays anywhere. *)

(** {2 Serialisation (acfc-wirgen/1)} *)

val to_string : spec -> string
(** Canonical form: stable member order, zero-weight mix entries
    omitted. *)

val of_string : string -> (spec, string) result
(** Strict parse: unknown fields, unknown pattern names and non-numeric
    budgets are rejected with their path, e.g.
    [wirgen: unknown pattern "ziggurat" at $.mix]. Parsing also
    {!validate}s, so an [Ok] spec is always generable. *)

val load : string -> (spec, string) result

val hash : spec -> string
(** Hex digest of the canonical JSON — the corpus-family fingerprint
    recorded in bench artifacts next to the corpus seed. *)

(** {2 Content-addressed corpora}

    A corpus is a pure function of [(spec, seed, count)], so it earns a
    deterministic resolution label computable {e before} generation;
    {!stored_corpus} uses it to hit the store on warm runs and to
    generate-and-ingest on cold ones, bit-identically either way. *)

val corpus_label : spec -> seed:int -> count:int -> string
(** ["corpus:<spec-hash>:s<seed>:n<count>"]. *)

val corpus_to_string : Acfc_wir.Wir.t list -> string
(** The corpus artifact: JSON Lines — each member's canonical
    [acfc-wir/1] document on its own line, in member order. *)

val corpus_of_string : string -> (Acfc_wir.Wir.t list, string) result
(** Inverse of {!corpus_to_string}; strict per-line [acfc-wir/1]
    parsing, errors carry the offending line number. *)

val ingest_spec :
  Acfc_store.Store.t -> spec -> (Acfc_store.Store.outcome, string) result
(** Store the spec's canonical bytes; the entry digest is {!hash}. *)

val stored_corpus :
  Acfc_store.Store.t ->
  spec ->
  seed:int ->
  count:int ->
  (Acfc_wir.Wir.t list * [ `Loaded of string | `Generated of string ], string)
  result
(** Resolve {!corpus_label} in the store: on a hit, decode the stored
    corpus ([`Loaded digest]); on a miss, {!corpus}, ingest under the
    label and return [`Generated digest]. Both paths yield the same
    programs (generation is deterministic and the codec round-trips). *)
