(* Single-producer single-consumer request batch: the per-domain mailbox
   through which clients hand requests to the server shard at an epoch
   barrier. Laid out as parallel scalar columns (one float column for
   send times, int columns for everything else), so pushing a request
   on the steady path writes five array slots and allocates nothing —
   growth doubles the columns, amortised O(1) and only until the
   high-water mark of the run.

   Concurrency contract: within an epoch exactly one domain (the
   producer pinned to this buffer) calls [push]; between epochs, after
   the team barrier, exactly one domain (the coordinator) reads and
   [clear]s. The barrier's mutex provides the happens-before edge in
   both directions, so no atomics are needed here. *)

type t = {
  mutable ts : float array; (* send time (virtual seconds) *)
  mutable client : int array;
  mutable seq : int array; (* per-client send sequence number *)
  mutable wld : int array; (* workload index within the client *)
  mutable blk : int array; (* Block.pack of the requested block *)
  mutable len : int;
}

let create ?(capacity = 256) () =
  let capacity = max 1 capacity in
  {
    ts = Array.make capacity 0.0;
    client = Array.make capacity 0;
    seq = Array.make capacity 0;
    wld = Array.make capacity 0;
    blk = Array.make capacity 0;
    len = 0;
  }

let length t = t.len

let clear t = t.len <- 0

let grow t =
  let cap = 2 * Array.length t.ts in
  let ts = Array.make cap 0.0
  and client = Array.make cap 0
  and seq = Array.make cap 0
  and wld = Array.make cap 0
  and blk = Array.make cap 0 in
  Array.blit t.ts 0 ts 0 t.len;
  Array.blit t.client 0 client 0 t.len;
  Array.blit t.seq 0 seq 0 t.len;
  Array.blit t.wld 0 wld 0 t.len;
  Array.blit t.blk 0 blk 0 t.len;
  t.ts <- ts;
  t.client <- client;
  t.seq <- seq;
  t.wld <- wld;
  t.blk <- blk

(* Inlined, so the send time reaches its column unboxed. *)
let[@inline] push t ~ts ~client ~seq ~wld ~blk =
  if t.len = Array.length t.ts then grow t;
  let i = t.len in
  t.ts.(i) <- ts;
  t.client.(i) <- client;
  t.seq.(i) <- seq;
  t.wld.(i) <- wld;
  t.blk.(i) <- blk;
  t.len <- i + 1

let ts t i = t.ts.(i)

let client t i = t.client.(i)

let seq t i = t.seq.(i)

let wld t i = t.wld.(i)

let blk t i = t.blk.(i)
