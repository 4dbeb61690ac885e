(** The canonical block-reference-stream representation.

    Three things in this repository produce or consume streams of block
    references: the policy lab's bare traces ({!Trace.t}, just blocks),
    the live {!Recorder} (blocks annotated with the referencing process
    and hit/prefetch flags), and the workload IR's fast-forwarded
    demand stream ([Acfc_wir.Wir.references], bare blocks again). This
    module is the one representation they all meet at — an array of
    annotated {!entry} values — with conversions in both directions and
    the {e single} text codec for trace files (the format the
    [acfc-run record] / [policies -f] round-trip uses).

    A {!Trace.t} is the lossy projection ({!demand}); {!of_blocks}
    lifts a bare trace back by marking every reference a demand miss
    (the flags only matter for reporting — replacement studies replay
    the block sequence). *)

type entry = {
  pid : Acfc_core.Pid.t;
  block : Acfc_core.Block.t;
  hit : bool;
  prefetch : bool;
}

type t = entry array

val demand : ?pid:Acfc_core.Pid.t -> ?include_prefetch:bool -> t -> Trace.t
(** The block sequence, optionally restricted to one process.
    [include_prefetch] defaults to false: a replacement study wants the
    demand references, not the prefetcher's. *)

val of_blocks : ?pid:Acfc_core.Pid.t -> Trace.t -> t
(** Lift a bare trace: every reference becomes a demand ([prefetch] =
    false) miss by [pid] (default pid 0). *)

(** {2 Text format}

    One line per reference, ["<pid> <file> <index> <h|m> <d|p>"],
    preceded by the {!magic} header line. *)

val magic : string
(** ["acfc-trace-v1"]. *)

val render : t -> string
(** The complete trace file as one string — the exact bytes {!save}
    writes, and the canonical content the artifact store digests. *)

val parse : string -> t
(** Inverse of {!render}. Raises one [Failure] on a malformed trace:
    ["empty file"], or a reason that names the first bad line
    (["line 3: bad integer \"x\""]), including a line whose pid or
    block {!Acfc_core.Pid.make}, {!Acfc_core.Block.make} or
    {!Acfc_core.Block.pack} refuses. *)

val save : t -> out_channel -> unit

val load : in_channel -> t
(** {!parse} of the channel's remaining contents. *)
