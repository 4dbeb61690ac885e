(** Structured trace events for the whole simulator.

    Every layer (cache, allocation manager, file system, disks, bus,
    engine) emits these through a {!Sink.t}, the one way to observe a
    run: JSONL and CSV export, the replacement recorder, the tests and
    the executable cache spec all read the same records, each carrying
    its simulated timestamp.

    Pids, files and blocks are carried as plain integers so the
    library stays dependency-free and usable from every layer. *)

type block = { file : int; index : int }

type t =
  | Cache_hit of { pid : int; block : block }
  | Cache_miss of { pid : int; block : block; prefetch : bool }
  | Evict of {
      victim : block;
      owner : int;
      candidate : block;  (** the kernel's suggestion *)
      policy : string;  (** allocation policy in force *)
      reason : string;  (** ["capacity"] or ["invalidate"] *)
    }
  | Writeback of { block : block }
  | Swap of { kept : block; victim : block }
      (** LRU-SP list swap: the spared kernel candidate takes the
          victim's global position. *)
  | Placeholder_created of { replaced : block; target : block; chooser : int }
  | Placeholder_hit of { missing : block; target : block; chooser : int }
      (** A placeholder fired: the manager's earlier overrule was a
          mistake (the paper's placeholder mechanism). *)
  | Manager_revoked of { pid : int }
  | Disk_io of {
      disk : string;
      kind : string;  (** ["read"] or ["write"] *)
      addr : int;
      blocks : int;
      seek : float;  (** controller overhead + seek, seconds *)
      rot : float;  (** rotational latency, seconds *)
      xfer : float;  (** transfer (bus-holding) time, seconds *)
      wait : float;  (** queueing delay before service, seconds *)
    }
  | Syscall of { pid : int; op : string; detail : string }
      (** Data-path and [fbehavior] control-path operations, e.g.
          [op = "read"], [detail = "file=3 off=0 len=8192"]. *)
  | Fiber of { name : string; op : string }  (** engine: ["spawn"] / ["finish"] *)

type record = { time : float; ev : t }
(** One trace line: an event at a simulated time. *)

val kind : t -> string
(** Stable lowercase tag, e.g. ["cache_miss"]; the JSONL ["ev"] field. *)

val pid : t -> int option
(** The acting pid, for events that have one. *)

val to_json : record -> Json.t
(** Flat object: [{"t": …, "ev": "…", …fields}]. *)

val of_json : Json.t -> (record, string) result
(** Strict inverse of {!to_json} ([of_json (to_json r) = Ok r]): both
    come from one {!Codec} description, and unknown or missing members
    are errors with their [$.path]. *)

val csv_header : string
(** Column names for {!to_csv}, comma-separated. *)

val to_csv : record -> string
(** One CSV row under {!csv_header}; inapplicable columns are empty. *)

val pp : Format.formatter -> record -> unit
