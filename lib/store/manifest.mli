(** The store's index: a strict, versioned [acfc-store/1] JSON document.

    The manifest records every artifact the store has ingested — its
    {!Kind.t}, content digest (MD5 hex of the stored bytes), size, an
    optional resolution label, and a monotonically increasing ingestion
    sequence number ([seq]) that gives artifacts of the same kind a
    stable chronological order (used by [bench timeline]).

    Labels are the store's name→digest resolution mechanism: content
    digests are not known before an artifact is generated, so producers
    register a deterministic label (e.g. ["refstream:<scenario-hash>"]
    or ["corpus:<spec-hash>:s11:n4"]) that later runs resolve to the
    digest of the previously ingested bytes. A label maps to at most
    one digest; re-ingesting under the same label must produce the same
    digest (enforced by {!add}).

    The codec follows the same discipline as the scenario / wir /
    wirgen formats: a [schema] member pinned to ["acfc-store/1"],
    unknown and duplicate members rejected, and every error naming its
    [$.path]. *)

type entry = {
  seq : int;  (** ingestion order, unique across the whole store *)
  kind : Kind.t;
  digest : string;  (** MD5 hex of the stored bytes *)
  bytes : int;  (** size of the stored artifact *)
  label : string option;  (** resolution label, if the producer gave one *)
}

type t

val empty : t

val entries : t -> entry list
(** All entries in ascending [seq] order. *)

val add : t -> kind:Kind.t -> digest:string -> bytes:int -> label:string option
  -> (t * entry, string) result
(** Record an ingestion. If the (kind, digest) pair is already present
    the existing entry is returned unchanged (ingestion is idempotent),
    except that a previously unlabelled entry adopts the new label.
    Fails if [label] is already bound to a different digest. *)

val find : t -> kind:Kind.t -> digest:string -> entry option

val resolve : t -> label:string -> entry option
(** Look up an entry by its resolution label. *)

val by_kind : t -> Kind.t -> entry list
(** Entries of one kind, ascending [seq] order. *)

val remove : t -> kind:Kind.t -> digest:string -> t
(** Drop an entry (used by GC); missing entries are ignored. *)

(** {2 Codec} *)

val to_string : t -> string
val of_string : string -> (t, string) result

val save : t -> string -> unit
(** Write atomically (temp file + rename) so a concurrent reader never
    observes a torn manifest. *)

val load : string -> (t, string) result
