(* The eleven replacement cores, each a {!Policy_core.CORE} state
   machine. The eight stock policies keep the exact victim behaviour of
   their former [Policies] incarnations (pinned by the record-twin
   lockstep in `bench check` and the behaviour suites), re-expressed
   over events. The queue-based cores (FIFO, CLOCK, 2Q) formerly popped
   their victim inside the choice; here the choice is a peek and the
   removal happens at the {!Policy_core.Evict} event, with stamped queue
   entries skipped lazily — for the offline replay this is the identical
   sequence of operations, and it additionally tolerates a live kernel
   evicting a block other than the one named (overrule, invalidation). *)

module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Itbl = Acfc_core.Itbl
open Policy_core

(* One recency list of blocks on columnar storage: free-listed slots
   over an {!Ilist} store with an {!Itbl} index keyed by {!Block.pack}.
   Every operation is O(1) and allocation-free at steady state. *)
module Islab = struct
  type t = {
    store : Ilist.store;
    list : Ilist.t;
    tbl : Itbl.t; (* Block.pack -> slot *)
    mutable blocks : Block.t array; (* slot -> block *)
    mutable free : int array; (* stack of free slots *)
    mutable nfree : int;
    mutable len : int;
  }

  let dummy = Block.make ~file:0 ~index:0

  let create n =
    let n = Stdlib.max 16 n in
    {
      store = Ilist.make_store n;
      list = Ilist.create ();
      tbl = Itbl.create n;
      blocks = Array.make n dummy;
      free = Array.init n (fun i -> n - 1 - i);
      nfree = n;
      len = 0;
    }

  let grow t =
    let old = Array.length t.blocks in
    let cap = 2 * old in
    Ilist.grow_store t.store cap;
    let blocks = Array.make cap dummy in
    Array.blit t.blocks 0 blocks 0 old;
    t.blocks <- blocks;
    let free = Array.make cap 0 in
    Array.blit t.free 0 free 0 t.nfree;
    for i = 0 to old - 1 do
      free.(t.nfree + i) <- old + i
    done;
    t.free <- free;
    t.nfree <- t.nfree + old

  let mem t block = Itbl.find t.tbl (Block.pack block) >= 0

  let slot t block =
    let s = Itbl.find t.tbl (Block.pack block) in
    if s < 0 then failwith "Islab: block not resident";
    s

  let push_front t block =
    if t.nfree = 0 then grow t;
    let s = t.free.(t.nfree - 1) in
    t.nfree <- t.nfree - 1;
    t.blocks.(s) <- block;
    Itbl.set t.tbl (Block.pack block) s;
    Ilist.push_front t.store t.list s;
    t.len <- t.len + 1

  let move_front t block = Ilist.move_front t.store t.list (slot t block)

  let remove t block =
    let key = Block.pack block in
    let s = Itbl.find t.tbl key in
    if s >= 0 then begin
      Ilist.remove t.store t.list s;
      Itbl.remove t.tbl key;
      t.free.(t.nfree) <- s;
      t.nfree <- t.nfree + 1;
      t.len <- t.len - 1
    end

  let is_empty t = Ilist.is_empty t.list

  let length t = t.len

  let front t = t.blocks.(Ilist.front t.list)

  let back t = t.blocks.(Ilist.back t.list)
end

(* FIFO-ordered queue of blocks that survives out-of-order removals: a
   stdlib [Queue] of stamped entries plus a block -> live-stamp table.
   Removal just drops the table entry; stale queue entries are skipped
   when the front is inspected. The old destructive pop-at-choice
   behaviour is recovered by [drop_front] at eviction time. *)
module Squeue = struct
  type t = {
    q : (int * Block.t) Queue.t;
    live : (Block.t, int) Hashtbl.t;
    mutable stamp : int;
  }

  let create () = { q = Queue.create (); live = Hashtbl.create 1024; stamp = 0 }

  let length t = Hashtbl.length t.live

  let push t block =
    t.stamp <- t.stamp + 1;
    Hashtbl.replace t.live block t.stamp;
    Queue.push (t.stamp, block) t.q

  (* Discard stale entries so the physical front is a live member. *)
  let rec settle t =
    match Queue.peek_opt t.q with
    | None -> ()
    | Some (stamp, block) ->
      (match Hashtbl.find_opt t.live block with
      | Some live when live = stamp -> ()
      | Some _ | None ->
        ignore (Queue.pop t.q);
        settle t)

  let front t =
    settle t;
    match Queue.peek_opt t.q with
    | Some (_, block) -> block
    | None -> failwith "Squeue: empty"

  (* Remove [block]; additionally pop it when it is the physical front,
     matching the destructive choice of the pre-core queue policies. *)
  let drop t block =
    settle t;
    (match Queue.peek_opt t.q with
    | Some (stamp, b)
      when Block.equal b block
           && (match Hashtbl.find_opt t.live block with
              | Some live -> live = stamp
              | None -> false) ->
      ignore (Queue.pop t.q)
    | Some _ | None -> ());
    Hashtbl.remove t.live block

  (* Rotate the live front entry to the tail (CLOCK second chance). *)
  let rotate t =
    settle t;
    let stamp, block = Queue.pop t.q in
    Queue.push (stamp, block) t.q;
    block
end

(* Shared recency-list state for LRU and MRU. *)
module Recency = struct
  type t = Islab.t

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ = Islab.create capacity

  let on_event t = function
    | Reference { block; _ } -> Islab.move_front t block
    | Admit { block; _ } -> Islab.push_front t block
    | Evict { block } | Invalidate { block } -> Islab.remove t block
    | Hint _ -> ()

  let end_victim t ~front =
    if Islab.is_empty t then failwith "Recency: empty list"
    else if front then Islab.front t
    else Islab.back t

  let stats t = [ ("resident", float_of_int (Islab.length t)) ]
end

module Lru = struct
  include Recency

  let name = "LRU"

  let summary = "evict the least recently used block"

  let victim t ~pos:_ ~missing:_ = end_victim t ~front:false
end

module Mru = struct
  include Recency

  let name = "MRU"

  let summary = "evict the most recently used block (sequential scans)"

  let victim t ~pos:_ ~missing:_ = end_victim t ~front:true
end

module Fifo = struct
  type t = Squeue.t

  let name = "FIFO"

  let summary = "evict in admission order; references do not rejuvenate"

  let adaptive = false

  let needs_future = false

  let create ~capacity:_ ~future:_ = Squeue.create ()

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> Squeue.push t block
    | Evict { block } | Invalidate { block } -> Squeue.drop t block

  let victim t ~pos:_ ~missing:_ = Squeue.front t

  let stats t = [ ("resident", float_of_int (Squeue.length t)) ]
end

module Clock = struct
  type t = { ring : Squeue.t; referenced : (Block.t, unit) Hashtbl.t }

  let name = "CLOCK"

  let summary = "second-chance FIFO with per-block reference bits"

  let adaptive = false

  let needs_future = false

  let create ~capacity:_ ~future:_ =
    { ring = Squeue.create (); referenced = Hashtbl.create 1024 }

  let on_event t = function
    | Reference { block; _ } -> Hashtbl.replace t.referenced block ()
    | Admit { block; _ } -> Squeue.push t.ring block
    | Evict { block } | Invalidate { block } ->
      Squeue.drop t.ring block;
      Hashtbl.remove t.referenced block
    | Hint _ -> ()

  let rec victim t ~pos ~missing =
    let block = Squeue.front t.ring in
    if Hashtbl.mem t.referenced block then begin
      (* Second chance: clear the bit and move the hand on. *)
      Hashtbl.remove t.referenced block;
      ignore (Squeue.rotate t.ring);
      victim t ~pos ~missing
    end
    else block

  let stats t = [ ("resident", float_of_int (Squeue.length t.ring)) ]
end

(* Victim orderings for the indexed LRU-2 and OPT below. Both keys are
   total orders: last-reference positions are unique across resident
   blocks (each stream position references exactly one block), and the
   OPT key carries the block identity for the never-used-again tier. *)
module Pair_map = Map.Make (struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
end)

module Lru_2 = struct
  (* history: positions of the last two references, most recent first;
     victims: the same entries keyed by (penultimate, last) so the
     eviction choice — oldest penultimate reference, ties broken by the
     older last reference — is the map's minimum binding instead of a
     full-table scan per miss. *)
  type t = {
    history : (Block.t, int * int) Hashtbl.t;
    mutable victims : Block.t Pair_map.t;
  }

  let name = "LRU-2"

  let summary = "evict the oldest penultimate reference (O'Neil LRU-K, K=2)"

  let adaptive = false

  let needs_future = false

  let never = -1

  let create ~capacity:_ ~future:_ =
    { history = Hashtbl.create 1024; victims = Pair_map.empty }

  let record t ~pos block =
    let last, penultimate =
      Option.value (Hashtbl.find_opt t.history block) ~default:(never, never)
    in
    if last <> never then t.victims <- Pair_map.remove (penultimate, last) t.victims;
    Hashtbl.replace t.history block (pos, last);
    t.victims <- Pair_map.add (last, pos) block t.victims

  let forget t block =
    match Hashtbl.find_opt t.history block with
    | Some (last, penultimate) ->
      t.victims <- Pair_map.remove (penultimate, last) t.victims;
      Hashtbl.remove t.history block
    | None -> ()

  let on_event t = function
    | Reference { pos; block } | Admit { pos; block } -> record t ~pos block
    | Evict { block } | Invalidate { block } -> forget t block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    match Pair_map.min_binding_opt t.victims with
    | Some (_, block) -> block
    | None -> failwith "LRU-2: empty"

  let stats t = [ ("resident", float_of_int (Hashtbl.length t.history)) ]
end

module Rand = struct
  (* Swap-with-last dynamic array: uniform choice and eviction are both
     O(1). The RNG is seeded from the capacity, so the draw sequence —
     and therefore the victim sequence — is a pure function of
     (capacity, demand stream). *)
  type t = {
    rng : Acfc_sim.Rng.t;
    mutable arr : Block.t array;
    mutable n : int;
    index : Itbl.t;  (* Block.pack -> slot in [arr] *)
  }

  let name = "RAND"

  let summary = "evict a uniformly random resident block"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      rng = Acfc_sim.Rng.create (capacity + 7);
      arr = [||];
      n = 0;
      index = Itbl.create 1024;
    }

  let inserted t block =
    if t.n = Array.length t.arr then begin
      let cap = Stdlib.max 16 (2 * t.n) in
      let arr = Array.make cap block in
      Array.blit t.arr 0 arr 0 t.n;
      t.arr <- arr
    end;
    t.arr.(t.n) <- block;
    Itbl.set t.index (Block.pack block) t.n;
    t.n <- t.n + 1

  let removed t block =
    let key = Block.pack block in
    let i = Itbl.find t.index key in
    if i >= 0 then begin
      let last = t.n - 1 in
      let moved = t.arr.(last) in
      t.arr.(i) <- moved;
      Itbl.set t.index (Block.pack moved) i;
      Itbl.remove t.index key;
      t.n <- last
    end

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> inserted t block
    | Evict { block } | Invalidate { block } -> removed t block

  let victim t ~pos:_ ~missing:_ =
    if t.n = 0 then failwith "RAND: empty";
    t.arr.(Acfc_sim.Rng.int t.rng t.n)

  let stats t = [ ("resident", float_of_int t.n) ]
end

module Opt_victims = Set.Make (struct
  type t = int * Block.t  (* (next use, block) *)

  let compare (u1, b1) (u2, b2) =
    match Int.compare u1 u2 with 0 -> Block.compare b1 b2 | c -> c
end)

module Opt = struct
  type t = {
    (* For each block, the stream positions where it is referenced, in
       order, with the already-consumed prefix removed. *)
    future : (Block.t, int list ref) Hashtbl.t;
    resident : (Block.t, int) Hashtbl.t;  (* block -> its key in [victims] *)
    (* Resident blocks keyed by next use, so the farthest-future victim
       is the maximum element instead of a full-table scan per miss.
       Never-used-again blocks sit at max_int, tied; the block identity
       in the key makes the choice deterministic, and any choice among
       them yields the same miss count (none is referenced again). *)
    mutable victims : Opt_victims.t;
  }

  let name = "OPT"

  let summary = "clairvoyant MIN: evict the farthest future use (offline only)"

  let adaptive = false

  let needs_future = true

  let create ~capacity:_ ~future:trace =
    let future = Hashtbl.create 1024 in
    Array.iteri
      (fun pos block ->
        match Hashtbl.find_opt future block with
        | Some l -> l := pos :: !l
        | None -> Hashtbl.replace future block (ref [ pos ]))
      trace;
    Hashtbl.iter (fun _ l -> l := List.rev !l) future;
    { future; resident = Hashtbl.create 1024; victims = Opt_victims.empty }

  let consume t ~pos block =
    let l = Hashtbl.find t.future block in
    match !l with
    | p :: rest when p = pos -> l := rest
    | _ -> failwith "OPT: stream position mismatch"

  let next_use t block =
    match !(Hashtbl.find t.future block) with [] -> max_int | p :: _ -> p

  let reindex t block use =
    Hashtbl.replace t.resident block use;
    t.victims <- Opt_victims.add (use, block) t.victims

  let drop t block =
    match Hashtbl.find_opt t.resident block with
    | Some use ->
      t.victims <- Opt_victims.remove (use, block) t.victims;
      Hashtbl.remove t.resident block
    | None -> ()

  let on_event t = function
    | Reference { pos; block } ->
      (* The stored key is the block's next use, which is this
         reference: drop it, consume the position, and re-key at the
         new next use. *)
      (match Hashtbl.find_opt t.resident block with
      | Some use -> t.victims <- Opt_victims.remove (use, block) t.victims
      | None -> failwith "OPT: hit on non-resident block");
      consume t ~pos block;
      reindex t block (next_use t block)
    | Admit { pos; block } ->
      consume t ~pos block;
      reindex t block (next_use t block)
    | Evict { block } | Invalidate { block } -> drop t block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    match Opt_victims.max_elt_opt t.victims with
    | Some (_, block) -> block
    | None -> failwith "OPT: empty"

  let stats t = [ ("resident", float_of_int (Hashtbl.length t.resident)) ]
end

module Two_q = struct
  (* Simplified full 2Q (Johnson & Shasha, VLDB '94 — contemporaneous
     with the paper): new pages enter the FIFO probation queue A1in;
     pages re-referenced after leaving it (tracked by the ghost queue
     A1out) are promoted to the protected LRU queue Am. *)
  type queue = A1in | Am

  type t = {
    kin : int;  (* A1in capacity *)
    kout : int;  (* A1out ghost capacity *)
    a1in : Squeue.t;
    am : Islab.t;
    where : (Block.t, queue) Hashtbl.t;  (* resident pages only *)
    a1out : Block.t Queue.t;  (* ghosts: identities only *)
    ghost : (Block.t, unit) Hashtbl.t;
  }

  let name = "2Q"

  let summary = "probation FIFO + protected LRU with a ghost promotion queue"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      kin = Stdlib.max 1 (capacity / 4);
      kout = Stdlib.max 1 (capacity / 2);
      a1in = Squeue.create ();
      am = Islab.create capacity;
      where = Hashtbl.create 1024;
      a1out = Queue.create ();
      ghost = Hashtbl.create 1024;
    }

  let remember_ghost t block =
    Queue.push block t.a1out;
    Hashtbl.replace t.ghost block ();
    while Queue.length t.a1out > t.kout do
      Hashtbl.remove t.ghost (Queue.pop t.a1out)
    done

  let on_event t = function
    | Reference { block; _ } ->
      (match Hashtbl.find_opt t.where block with
      | Some Am -> Islab.move_front t.am block
      | Some A1in -> ()  (* classic 2Q: probation hits do not promote *)
      | None -> assert false)
    | Admit { block; _ } ->
      if Hashtbl.mem t.ghost block then begin
        (* Seen recently: promote straight to the protected queue. *)
        Hashtbl.replace t.where block Am;
        Islab.push_front t.am block
      end
      else begin
        Hashtbl.replace t.where block A1in;
        Squeue.push t.a1in block
      end
    | Evict { block } ->
      (match Hashtbl.find_opt t.where block with
      | Some Am -> Islab.remove t.am block
      | Some A1in ->
        (* A replaced probation page is remembered so a prompt
           re-reference proves it deserves the protected queue. *)
        Squeue.drop t.a1in block;
        remember_ghost t block
      | None -> ());
      Hashtbl.remove t.where block
    | Invalidate { block } ->
      (* Invalidation is not a replacement decision: no ghost entry. *)
      (match Hashtbl.find_opt t.where block with
      | Some Am -> Islab.remove t.am block
      | Some A1in -> Squeue.drop t.a1in block
      | None -> ());
      Hashtbl.remove t.where block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    if Squeue.length t.a1in > t.kin || Islab.is_empty t.am then Squeue.front t.a1in
    else Islab.back t.am

  let stats t =
    [
      ("a1in", float_of_int (Squeue.length t.a1in));
      ("am", float_of_int (Islab.length t.am));
      ("ghost", float_of_int (Hashtbl.length t.ghost));
    ]
end

(* {2 Adaptive policies} *)

module Arc = struct
  (* Adaptive Replacement Cache (Megiddo & Modha, FAST '03): recency
     list T1 and frequency list T2 share the capacity; ghost lists B1/B2
     remember recent evictions from each, and a hit in a ghost list
     moves the adaptation target [p] (the size T1 "deserves") toward
     that list's side. Ghost lists are bounded by the cache capacity —
     the qcheck suite drives random streams and asserts the bound after
     every event. *)
  type t = {
    cap : int;
    t1 : Islab.t;  (* seen once recently, MRU at front *)
    t2 : Islab.t;  (* seen at least twice, MRU at front *)
    b1 : Islab.t;  (* ghosts of T1 evictions *)
    b2 : Islab.t;  (* ghosts of T2 evictions *)
    mutable p : int;  (* target size of T1, 0..cap *)
    mutable adapted_for : Block.t option;
        (* missing block [victim] already adapted [p] for, so the
           paired [Admit] does not adapt twice *)
  }

  let name = "ARC"

  let summary = "adaptive recency/frequency split with ghost-directed target"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      cap = Stdlib.max 1 capacity;
      t1 = Islab.create capacity;
      t2 = Islab.create capacity;
      b1 = Islab.create capacity;
      b2 = Islab.create capacity;
      p = 0;
      adapted_for = None;
    }

  let trim ghost cap =
    while Islab.length ghost > cap do
      Islab.remove ghost (Islab.back ghost)
    done

  (* Move [p] toward the ghost list [block] hit, by the classic ratio
     step (at least 1). No-op for blocks in neither ghost list. *)
  let adapt t block =
    if Islab.mem t.b1 block then begin
      let d =
        Stdlib.max 1
          (if Islab.length t.b1 = 0 then 1 else Islab.length t.b2 / Islab.length t.b1)
      in
      t.p <- Stdlib.min t.cap (t.p + d)
    end
    else if Islab.mem t.b2 block then begin
      let d =
        Stdlib.max 1
          (if Islab.length t.b2 = 0 then 1 else Islab.length t.b1 / Islab.length t.b2)
      in
      t.p <- Stdlib.max 0 (t.p - d)
    end

  let on_event t = function
    | Reference { block; _ } ->
      if Islab.mem t.t1 block then begin
        (* Second reference: promote to the frequency side. *)
        Islab.remove t.t1 block;
        Islab.push_front t.t2 block
      end
      else Islab.move_front t.t2 block
    | Admit { block; _ } ->
      (match t.adapted_for with
      | Some b when Block.equal b block -> ()  (* [victim] already adapted *)
      | Some _ | None -> adapt t block);
      t.adapted_for <- None;
      if Islab.mem t.b1 block || Islab.mem t.b2 block then begin
        (* A ghost hit re-enters directly on the frequency side. *)
        Islab.remove t.b1 block;
        Islab.remove t.b2 block;
        Islab.push_front t.t2 block
      end
      else Islab.push_front t.t1 block
    | Evict { block } ->
      if Islab.mem t.t1 block then begin
        Islab.remove t.t1 block;
        Islab.push_front t.b1 block;
        trim t.b1 t.cap
      end
      else if Islab.mem t.t2 block then begin
        Islab.remove t.t2 block;
        Islab.push_front t.b2 block;
        trim t.b2 t.cap
      end
    | Invalidate { block } ->
      (* Dead contents teach nothing: drop without a ghost entry. *)
      Islab.remove t.t1 block;
      Islab.remove t.t2 block
    | Hint _ -> ()

  (* Classic REPLACE: shrink T1 when it exceeds its target (or exactly
     meets it and the missing block is a B2 ghost, about to grow T2). *)
  let victim t ~pos:_ ~missing =
    adapt t missing;
    t.adapted_for <- Some missing;
    let l1 = Islab.length t.t1 in
    if l1 > 0 && (l1 > t.p || (Islab.mem t.b2 missing && l1 = t.p)) then
      Islab.back t.t1
    else if not (Islab.is_empty t.t2) then Islab.back t.t2
    else Islab.back t.t1

  let stats t =
    [
      ("p", float_of_int t.p);
      ("t1", float_of_int (Islab.length t.t1));
      ("t2", float_of_int (Islab.length t.t2));
      ("b1", float_of_int (Islab.length t.b1));
      ("b2", float_of_int (Islab.length t.b2));
    ]
end

module Awrp = struct
  (* Adaptive Weight Ranking Policy (arXiv:1107.4851): every resident
     block is ranked by a weighted sum of a frequency term and a recency
     term; the weight itself adapts online. A ghost list remembers
     recently evicted blocks with their reference counts — when an
     evicted block returns, the mix is nudged toward the term that would
     have kept it (frequency if it was referenced repeatedly, recency
     otherwise). All arithmetic is RNG-free and the victim scan uses an
     order-independent minimum, so a fixed stream replays
     bit-identically. *)
  type info = { mutable cnt : int; mutable last : int }

  type t = {
    resident : (Block.t, info) Hashtbl.t;
    ghost : Islab.t;  (* recent evictions, MRU at front, <= cap *)
    ghost_cnt : (Block.t, int) Hashtbl.t;
    cap : int;
    mutable w : float;  (* frequency weight, 0.05 .. 0.95 *)
    mutable nudges : int;
  }

  let name = "AWRP"

  let summary = "adaptive weighted frequency+recency ranking (arXiv:1107.4851)"

  let adaptive = true

  let needs_future = false

  let step = 0.05

  let w_min = 0.05

  let w_max = 0.95

  let create ~capacity ~future:_ =
    {
      resident = Hashtbl.create (4 * capacity);
      ghost = Islab.create capacity;
      ghost_cnt = Hashtbl.create (4 * capacity);
      cap = Stdlib.max 1 capacity;
      w = 0.5;
      nudges = 0;
    }

  let touch t ~pos block =
    match Hashtbl.find_opt t.resident block with
    | Some i ->
      i.cnt <- i.cnt + 1;
      i.last <- pos
    | None -> failwith "AWRP: reference to non-resident block"

  let forget_ghost t block =
    Islab.remove t.ghost block;
    Hashtbl.remove t.ghost_cnt block

  let on_event t = function
    | Reference { pos; block } -> touch t ~pos block
    | Admit { pos; block } ->
      (match Hashtbl.find_opt t.ghost_cnt block with
      | Some cnt ->
        (* The stream disagreed with an eviction: favour the term that
           would have retained this block. *)
        if cnt >= 2 then t.w <- Stdlib.min w_max (t.w +. step)
        else t.w <- Stdlib.max w_min (t.w -. step);
        t.nudges <- t.nudges + 1;
        forget_ghost t block
      | None -> ());
      Hashtbl.replace t.resident block { cnt = 1; last = pos }
    | Evict { block } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i ->
        Islab.push_front t.ghost block;
        Hashtbl.replace t.ghost_cnt block i.cnt;
        while Islab.length t.ghost > t.cap do
          let b = Islab.back t.ghost in
          forget_ghost t b
        done
      | None -> ());
      Hashtbl.remove t.resident block
    | Invalidate { block } -> Hashtbl.remove t.resident block
    | Hint _ -> ()

  (* Rank = w * saturating-frequency + (1-w) * recency; evict the
     minimum. The fold computes an explicit (value, block) minimum with
     a [Block.compare] tie-break, so the choice is independent of table
     iteration order. *)
  let victim t ~pos ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block i ->
        let freq = Stdlib.min 1.0 (float_of_int i.cnt /. 16.0) in
        let recency = 1.0 /. float_of_int (1 + pos - i.last) in
        let value = (t.w *. freq) +. ((1.0 -. t.w) *. recency) in
        match !best with
        | None -> best := Some (value, block)
        | Some (bv, bb) ->
          if value < bv || (value = bv && Block.compare block bb < 0) then
            best := Some (value, block))
      t.resident;
    match !best with
    | Some (_, block) -> block
    | None -> failwith "AWRP: empty"

  let stats t =
    [
      ("w", t.w);
      ("nudges", float_of_int t.nudges);
      ("ghost", float_of_int (Islab.length t.ghost));
      ("resident", float_of_int (Hashtbl.length t.resident));
    ]
end

module Perceptron = struct
  (* LearnedCache-style perceptron eviction: each resident block is
     scored by a dot product of learned weights with a feature vector
     (bias, recency rank, saturating log reference count, priority-level
     hint, file-id hash); the lowest score is evicted. Learning is
     ghost-driven: evicting a block that promptly returns was a mistake
     (weights move toward its features); a ghost expiring un-referenced
     confirms the eviction (weights move away). Weights are clamped, so
     they stay finite on any stream — asserted by qcheck. *)
  let n_features = 5

  let lr = 0.0625

  let w_clamp = 4.0

  type info = {
    mutable cnt : int;
    mutable last : int;
    mutable level : int;  (* from Hint events; 0 = unhinted *)
  }

  type t = {
    cap : int;
    resident : (Block.t, info) Hashtbl.t;
    ghost : Islab.t;
    ghost_x : (Block.t, float array) Hashtbl.t;  (* eviction-time features *)
    w : float array;
    mutable updates : int;
  }

  let name = "PERCEPTRON"

  let summary = "online perceptron over recency/frequency/level/file features"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      cap = Stdlib.max 1 capacity;
      resident = Hashtbl.create (4 * capacity);
      ghost = Islab.create capacity;
      ghost_x = Hashtbl.create (4 * capacity);
      w = Array.make n_features 0.0;
      updates = 0;
    }

  let features t ~pos block i =
    let age = float_of_int (pos - i.last) /. float_of_int t.cap in
    let freq = Stdlib.min 1.0 (log (1.0 +. float_of_int i.cnt) /. log 256.0) in
    let level = float_of_int i.level /. 8.0 in
    let file_hash =
      float_of_int (Block.file block * 2654435761 land 255) /. 255.0
    in
    [| 1.0; age; freq; level; file_hash |]

  let score t x =
    let s = ref 0.0 in
    for k = 0 to n_features - 1 do
      s := !s +. (t.w.(k) *. x.(k))
    done;
    !s

  let clamp v =
    if v > w_clamp then w_clamp else if v < -.w_clamp then -.w_clamp else v

  let learn t x ~sign =
    for k = 0 to n_features - 1 do
      t.w.(k) <- clamp (t.w.(k) +. (sign *. lr *. x.(k)))
    done;
    t.updates <- t.updates + 1

  let forget_ghost t block =
    Islab.remove t.ghost block;
    Hashtbl.remove t.ghost_x block

  let on_event t = function
    | Reference { pos; block } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i ->
        i.cnt <- i.cnt + 1;
        i.last <- pos
      | None -> failwith "PERCEPTRON: reference to non-resident block")
    | Admit { pos; block } ->
      (match Hashtbl.find_opt t.ghost_x block with
      | Some x ->
        (* Mistake: the stream wanted this block back. Blocks that look
           like it should score higher (be kept). *)
        learn t x ~sign:1.0;
        forget_ghost t block
      | None -> ());
      Hashtbl.replace t.resident block { cnt = 1; last = pos; level = 0 }
    | Evict { block } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i ->
        (* Remember the eviction-time features; score at [last] so the
           stored vector does not depend on when the kernel applied the
           decision. *)
        let x = features t ~pos:i.last block i in
        Islab.push_front t.ghost block;
        Hashtbl.replace t.ghost_x block x;
        while Islab.length t.ghost > t.cap do
          let b = Islab.back t.ghost in
          (* Expired un-referenced: the eviction was right. *)
          (match Hashtbl.find_opt t.ghost_x b with
          | Some gx -> learn t gx ~sign:(-1.0)
          | None -> ());
          forget_ghost t b
        done
      | None -> ());
      Hashtbl.remove t.resident block
    | Invalidate { block } -> Hashtbl.remove t.resident block
    | Hint { block; level } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i -> i.level <- level
      | None -> ())

  (* Lowest dot-product score loses; explicit minimum with a
     [Block.compare] tie-break keeps the scan order-independent. *)
  let victim t ~pos ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block i ->
        let value = score t (features t ~pos block i) in
        match !best with
        | None -> best := Some (value, block)
        | Some (bv, bb) ->
          if value < bv || (value = bv && Block.compare block bb < 0) then
            best := Some (value, block))
      t.resident;
    match !best with
    | Some (_, block) -> block
    | None -> failwith "PERCEPTRON: empty"

  let stats t =
    List.concat
      [
        Array.to_list (Array.mapi (fun k v -> (Printf.sprintf "w%d" k, v)) t.w);
        [
          ("updates", float_of_int t.updates);
          ("ghost", float_of_int (Islab.length t.ghost));
          ("resident", float_of_int (Hashtbl.length t.resident));
        ];
      ]
end
