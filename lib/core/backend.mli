(** The storage interface below the buffer cache.

    BUF calls these as plain (possibly blocking) functions when it needs
    the device: the simulation's file-system layer implements them with
    fiber-blocking disk I/O for a demand read and with a read that
    completes later, by callback, for a read-ahead, while unit tests
    pass {!null}. BUF keeps
    its own structures consistent {e before} every call, because other
    simulated processes may re-enter the cache while a call blocks —
    the same "called with no lock held" discipline the paper requires
    of the BUF/ACM interface.

    Every call names its block by its packed key ({!Block.pack}), so a
    miss, a write-back or an eviction builds no {!Block.t} on the way
    down; a backend that needs the record calls {!Block.unpack}. *)

type t = {
  read_block : int -> bool;
      (** fetch a block from the device: [true] once it has landed,
          [false] while the read is still in flight. BUF keeps the
          block's frame pinned until it lands, so a backend that
          answers [false] must call [Cache.fetched] with the key
          when the read lands. *)
  write_block : int -> unit;  (** write back a dirty block *)
  evicted : int -> unit;
      (** the frame was released (after any write-back); the data layer
          can drop its copy *)
}

val null : t
(** No-op backend for algorithm-only use (tests, trace-driven runs):
    every fetch lands at once. *)
