(* The eleven replacement cores, each a {!Policy_core.CORE} state
   machine. The eight stock policies keep the exact victim behaviour of
   the offline lab's earlier per-policy modules (pinned by the
   record-twin lockstep in `bench check` and the behaviour suites),
   re-expressed over events. The queue-based cores (FIFO, CLOCK, 2Q)
   formerly popped their victim inside the choice; here the choice is a
   peek and the removal happens at the {!Policy_core.Evict} event, with
   stamped queue entries skipped lazily — for the offline replay this is
   the identical sequence of operations, and it additionally tolerates a
   live kernel evicting a block other than the one named (overrule,
   invalidation). *)

module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Itbl = Acfc_core.Itbl
open Policy_core

let dummy = Block.make ~file:0 ~index:0

(* [a] grown to at least [cap] cells, the new ones set to [fill]. *)
let grow_column a cap fill =
  let old = Array.length a in
  if old >= cap then a
  else begin
    let b = Array.make (Stdlib.max cap (2 * old)) fill in
    Array.blit a 0 b 0 old;
    b
  end

(* Free-listed slots for a set of blocks: an {!Itbl} index keyed by
   {!Block.pack} plus slot -> block and slot -> packed-key columns.
   Cores keep their own per-slot columns beside these, grown to
   {!capacity} after each {!add}. Allocation-free at steady state. *)
module Slots = struct
  type t = {
    tbl : Itbl.t; (* Block.pack -> slot *)
    mutable blocks : Block.t array;
    mutable keys : int array; (* Block.pack, ordered like Block.compare *)
    mutable free : int array; (* stack of free slots *)
    mutable nfree : int;
  }

  let create n =
    let n = Stdlib.max 16 n in
    {
      tbl = Itbl.create n;
      blocks = Array.make n dummy;
      keys = Array.make n 0;
      free = Array.init n (fun i -> n - 1 - i);
      nfree = n;
    }

  let capacity t = Array.length t.blocks

  let length t = Itbl.length t.tbl

  (* The slot of [block], or [-1]. *)
  let find t block = Itbl.find t.tbl (Block.pack block)

  let grow t =
    let old = capacity t in
    let cap = 2 * old in
    t.blocks <- grow_column t.blocks cap dummy;
    t.keys <- grow_column t.keys cap 0;
    let free = Array.make cap 0 in
    Array.blit t.free 0 free 0 t.nfree;
    for i = 0 to old - 1 do
      free.(t.nfree + i) <- old + i
    done;
    t.free <- free;
    t.nfree <- t.nfree + old

  (* Bind [block], which must not be a member, to a free slot. *)
  let add t block =
    if t.nfree = 0 then grow t;
    let s = t.free.(t.nfree - 1) in
    t.nfree <- t.nfree - 1;
    let key = Block.pack block in
    t.blocks.(s) <- block;
    t.keys.(s) <- key;
    Itbl.set t.tbl key s;
    s

  let release t s =
    Itbl.remove t.tbl t.keys.(s);
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
end

(* One recency list of blocks: {!Slots} linked through an {!Ilist}
   store. Every operation is O(1) and allocation-free at steady
   state. *)
module Islab = struct
  type t = { slots : Slots.t; store : Ilist.store; list : Ilist.t }

  let create n =
    let slots = Slots.create n in
    { slots; store = Ilist.make_store (Slots.capacity slots); list = Ilist.create () }

  let capacity t = Slots.capacity t.slots

  let find t block = Slots.find t.slots block

  let mem t block = find t block >= 0

  let slot t block =
    let s = find t block in
    if s < 0 then failwith "Islab: block not resident";
    s

  let push_front t block =
    let s = Slots.add t.slots block in
    Ilist.grow_store t.store (Slots.capacity t.slots);
    Ilist.push_front t.store t.list s

  let move_front t block = Ilist.move_front t.store t.list (slot t block)

  let remove t block =
    let s = find t block in
    if s >= 0 then begin
      Ilist.remove t.store t.list s;
      Slots.release t.slots s
    end

  let is_empty t = Ilist.is_empty t.list

  let length t = Ilist.length t.list

  let front t = t.slots.Slots.blocks.(Ilist.front t.list)

  let back t = t.slots.Slots.blocks.(Ilist.back t.list)
end

(* A dense set of blocks: the members fill indices [0, n) of a block
   column and a packed-key column, with an {!Itbl} index keyed by
   {!Block.pack}; removal moves the last member into the hole. Cores
   keep parallel columns and mirror that move. *)
module Dense = struct
  type t = {
    index : Itbl.t; (* Block.pack -> index *)
    mutable blocks : Block.t array;
    mutable keys : int array;
    mutable n : int;
  }

  let create () = { index = Itbl.create 1024; blocks = [||]; keys = [||]; n = 0 }

  (* The index of [block], or [-1]. *)
  let find t block = Itbl.find t.index (Block.pack block)

  (* Append [block] and return its index. *)
  let add t block =
    if t.n = Array.length t.blocks then begin
      let cap = Stdlib.max 16 (2 * t.n) in
      t.blocks <- grow_column t.blocks cap block;
      t.keys <- grow_column t.keys cap 0
    end;
    let i = t.n in
    let key = Block.pack block in
    t.blocks.(i) <- block;
    t.keys.(i) <- key;
    Itbl.set t.index key i;
    t.n <- i + 1;
    i

  (* Remove [block] and return the index it held, now holding the
     member that was last (at the new [n]); [-1] if absent. *)
  let remove t block =
    let key = Block.pack block in
    let i = Itbl.find t.index key in
    if i >= 0 then begin
      let last = t.n - 1 in
      t.blocks.(i) <- t.blocks.(last);
      t.keys.(i) <- t.keys.(last);
      Itbl.set t.index t.keys.(i) i;
      Itbl.remove t.index key;
      t.n <- last
    end;
    i
end

(* An indexed binary min-heap of slots, ordered by two int keys per
   slot compared lexicographically. [hpos] maps a slot to its heap
   index, so re-keying or removing a slot is O(log n) and allocates
   nothing. Slots are small non-negative ints; the columns grow to the
   largest slot seen. *)
module Iheap = struct
  type t = {
    mutable k1 : int array; (* slot -> primary key *)
    mutable k2 : int array; (* slot -> secondary key *)
    mutable hpos : int array; (* slot -> heap index, -1 when absent *)
    mutable heap : int array; (* heap index -> slot *)
    mutable size : int;
  }

  let create n =
    let n = Stdlib.max 16 n in
    {
      k1 = Array.make n 0;
      k2 = Array.make n 0;
      hpos = Array.make n (-1);
      heap = Array.make n 0;
      size = 0;
    }

  let length t = t.size

  let mem t s = s >= 0 && s < Array.length t.hpos && t.hpos.(s) >= 0

  let key2 t s = t.k2.(s)

  (* The minimum slot, or [-1] when empty. *)
  let top t = if t.size = 0 then -1 else t.heap.(0)

  let[@inline always] less t a b =
    let x = t.k1.(a) and y = t.k1.(b) in
    x < y || (x = y && t.k2.(a) < t.k2.(b))

  let[@inline always] place t i s =
    t.heap.(i) <- s;
    t.hpos.(s) <- i

  let rec sift_up t i s =
    if i = 0 then place t i s
    else
      let p = (i - 1) / 2 in
      let ps = t.heap.(p) in
      if less t s ps then begin
        place t i ps;
        sift_up t p s
      end
      else place t i s

  let rec sift_down t i s =
    let l = (2 * i) + 1 in
    if l >= t.size then place t i s
    else
      let c = if l + 1 < t.size && less t t.heap.(l + 1) t.heap.(l) then l + 1 else l in
      let cs = t.heap.(c) in
      if less t cs s then begin
        place t i cs;
        sift_down t c s
      end
      else place t i s

  (* Move [s], whose keys just changed, from heap index [i] to its
     place. *)
  let settle t i s =
    if i > 0 && less t s t.heap.((i - 1) / 2) then sift_up t i s else sift_down t i s

  (* Insert [s] with keys [(a, b)], or re-key it if present. *)
  let set t s a b =
    if s >= Array.length t.hpos then begin
      let cap = s + 1 in
      t.k1 <- grow_column t.k1 cap 0;
      t.k2 <- grow_column t.k2 cap 0;
      t.hpos <- grow_column t.hpos cap (-1);
      t.heap <- grow_column t.heap cap 0
    end;
    t.k1.(s) <- a;
    t.k2.(s) <- b;
    let i = t.hpos.(s) in
    if i >= 0 then settle t i s
    else begin
      t.size <- t.size + 1;
      sift_up t (t.size - 1) s
    end

  let remove t s =
    if mem t s then begin
      let i = t.hpos.(s) in
      t.hpos.(s) <- -1;
      let last = t.size - 1 in
      t.size <- last;
      if i < last then settle t i t.heap.(last)
    end
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

module Lru_2 = struct
  (* Resident blocks in slots, indexed by a heap keyed (penultimate,
     last) reference position, so the eviction choice — oldest
     penultimate reference, ties broken by the older last reference —
     is the heap top instead of a full-table scan per miss. The key is
     a total order: each stream position references one block, so last
     positions are unique across resident blocks. *)
  type t = { slots : Slots.t; heap : Iheap.t }

  let name = "LRU-2"

  let summary = "evict the oldest penultimate reference (O'Neil LRU-K, K=2)"

  let adaptive = false

  let needs_future = false

  let never = -1

  let create ~capacity ~future:_ =
    { slots = Slots.create capacity; heap = Iheap.create capacity }

  let record t ~pos block =
    let s = Slots.find t.slots block in
    if s >= 0 then Iheap.set t.heap s (Iheap.key2 t.heap s) pos
    else Iheap.set t.heap (Slots.add t.slots block) never pos

  let forget t block =
    let s = Slots.find t.slots block in
    if s >= 0 then begin
      Iheap.remove t.heap s;
      Slots.release t.slots s
    end

  let on_event t = function
    | Reference { pos; block } | Admit { pos; block } -> record t ~pos block
    | Evict { block } | Invalidate { block } -> forget t block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    let s = Iheap.top t.heap in
    if s < 0 then failwith "LRU-2: empty";
    t.slots.Slots.blocks.(s)

  let stats t = [ ("resident", float_of_int (Slots.length t.slots)) ]
end

module Rand = struct
  (* Swap-with-last dense set: uniform choice and eviction are both
     O(1). The RNG is seeded from the capacity, so the draw sequence —
     and therefore the victim sequence — is a pure function of
     (capacity, demand stream). *)
  type t = { rng : Acfc_sim.Rng.t; set : Dense.t }

  let name = "RAND"

  let summary = "evict a uniformly random resident block"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    { rng = Acfc_sim.Rng.create (capacity + 7); set = Dense.create () }

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> ignore (Dense.add t.set block)
    | Evict { block } | Invalidate { block } -> ignore (Dense.remove t.set block)

  let victim t ~pos:_ ~missing:_ =
    if t.set.Dense.n = 0 then failwith "RAND: empty";
    t.set.Dense.blocks.(Acfc_sim.Rng.int t.rng t.set.Dense.n)

  let stats t = [ ("resident", float_of_int t.set.Dense.n) ]
end

module Opt = struct
  (* Every distinct block of the stream gets a dense id. The stream's
     reference positions of each block are chained through [next], and
     [cursor] points at the block's first unconsumed one, which is its
     next use. Resident ids sit in a heap keyed (-next use, -packed
     block), so the farthest-future victim is the heap top. Next uses
     are unique positions except for never-used-again blocks (max_int);
     the packed key breaks that tie deterministically — by the largest
     [Block.compare] — and any choice among them yields the same miss
     count, since none is referenced again. *)
  type t = {
    ids : Itbl.t;  (* Block.pack -> id *)
    blocks : Block.t array;  (* id -> block *)
    next : int array;  (* position -> next position of its block, or max_int *)
    cursor : int array;  (* id -> next unconsumed position, or max_int *)
    heap : Iheap.t;  (* resident ids *)
  }

  let name = "OPT"

  let summary = "clairvoyant MIN: evict the farthest future use (offline only)"

  let adaptive = false

  let needs_future = true

  let create ~capacity:_ ~future:trace =
    let n = Array.length trace in
    let ids = Itbl.create 1024 in
    let blocks = Array.make n dummy and cursor = Array.make n max_int in
    let next = Array.make n max_int in
    let distinct = ref 0 in
    for pos = n - 1 downto 0 do
      let block = trace.(pos) in
      let key = Block.pack block in
      let id =
        match Itbl.find ids key with
        | -1 ->
          let id = !distinct in
          incr distinct;
          Itbl.set ids key id;
          blocks.(id) <- block;
          id
        | id -> id
      in
      next.(pos) <- cursor.(id);
      cursor.(id) <- pos
    done;
    { ids; blocks; next; cursor; heap = Iheap.create !distinct }

  (* Consume [pos] as [block]'s next reference and re-key the block at
     its following use; the block becomes (or stays) resident. *)
  let consume t ~pos block =
    let id = Itbl.find t.ids (Block.pack block) in
    if id < 0 || pos >= Array.length t.next || t.cursor.(id) <> pos then
      failwith "OPT: stream position mismatch";
    let use = t.next.(pos) in
    t.cursor.(id) <- use;
    Iheap.set t.heap id (-use) (-Block.pack block)

  let on_event t = function
    | Reference { pos; block } ->
      if not (Iheap.mem t.heap (Itbl.find t.ids (Block.pack block))) then
        failwith "OPT: hit on non-resident block";
      consume t ~pos block
    | Admit { pos; block } -> consume t ~pos block
    | Evict { block } | Invalidate { block } ->
      let id = Itbl.find t.ids (Block.pack block) in
      if id >= 0 then Iheap.remove t.heap id
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    let id = Iheap.top t.heap in
    if id < 0 then failwith "OPT: empty";
    t.blocks.(id)

  let stats t = [ ("resident", float_of_int (Iheap.length t.heap)) ]
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
     otherwise). All arithmetic is RNG-free and the victim is the
     minimum of (rank, block), so a fixed stream replays
     bit-identically.

     Resident blocks sit in one recency list per frequency class
     ([min cnt 16]): within a class the frequency term is constant and
     the rank is non-decreasing in the last-reference position (see
     [victim]), so a class's minimum is at its LRU end. *)
  let classes = 16

  type t = {
    slots : Slots.t;  (* resident blocks *)
    store : Ilist.store;
    lists : Ilist.t array;  (* class c = min cnt 16 - 1, MRU at front *)
    mutable cnt : int array;  (* slot -> references since admission *)
    mutable last : int array;  (* slot -> position of the last one *)
    ghost : Islab.t;  (* recent evictions, MRU at front, <= cap *)
    ghost_cnt : Itbl.t;  (* Block.pack -> count at eviction *)
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
    let slots = Slots.create capacity in
    let n = Slots.capacity slots in
    {
      slots;
      store = Ilist.make_store n;
      lists = Array.init classes (fun _ -> Ilist.create ());
      cnt = Array.make n 0;
      last = Array.make n 0;
      ghost = Islab.create capacity;
      ghost_cnt = Itbl.create capacity;
      cap = Stdlib.max 1 capacity;
      w = 0.5;
      nudges = 0;
    }

  let[@inline always] class_of cnt = (if cnt < classes then cnt else classes) - 1

  (* w * saturating-frequency + (1-w) * recency. *)
  let[@inline always] rank w ~pos cnt last =
    let f = float_of_int cnt /. 16.0 in
    let freq = if 1.0 <= f then 1.0 else f in
    let recency = 1.0 /. float_of_int (1 + pos - last) in
    (w *. freq) +. ((1.0 -. w) *. recency)

  let forget_ghost t block =
    Islab.remove t.ghost block;
    Itbl.remove t.ghost_cnt (Block.pack block)

  let drop t s =
    Ilist.remove t.store t.lists.(class_of t.cnt.(s)) s;
    Slots.release t.slots s

  let admit t ~pos block =
    let s = Slots.find t.slots block in
    let s =
      if s >= 0 then begin
        Ilist.remove t.store t.lists.(class_of t.cnt.(s)) s;
        s
      end
      else begin
        let s = Slots.add t.slots block in
        let n = Slots.capacity t.slots in
        if Array.length t.cnt < n then begin
          Ilist.grow_store t.store n;
          t.cnt <- grow_column t.cnt n 0;
          t.last <- grow_column t.last n 0
        end;
        s
      end
    in
    t.cnt.(s) <- 1;
    t.last.(s) <- pos;
    Ilist.push_front t.store t.lists.(0) s

  let on_event t = function
    | Reference { pos; block } ->
      let s = Slots.find t.slots block in
      if s < 0 then failwith "AWRP: reference to non-resident block";
      let from = class_of t.cnt.(s) in
      t.cnt.(s) <- t.cnt.(s) + 1;
      t.last.(s) <- pos;
      let into = class_of t.cnt.(s) in
      if from = into then Ilist.move_front t.store t.lists.(into) s
      else begin
        Ilist.remove t.store t.lists.(from) s;
        Ilist.push_front t.store t.lists.(into) s
      end
    | Admit { pos; block } ->
      let cnt = Itbl.find t.ghost_cnt (Block.pack block) in
      if cnt >= 0 then begin
        (* The stream disagreed with an eviction: favour the term that
           would have retained this block. *)
        if cnt >= 2 then t.w <- Stdlib.min w_max (t.w +. step)
        else t.w <- Stdlib.max w_min (t.w -. step);
        t.nudges <- t.nudges + 1;
        forget_ghost t block
      end;
      admit t ~pos block
    | Evict { block } ->
      let s = Slots.find t.slots block in
      if s >= 0 then begin
        Islab.push_front t.ghost block;
        Itbl.set t.ghost_cnt (Block.pack block) t.cnt.(s);
        while Islab.length t.ghost > t.cap do
          forget_ghost t (Islab.back t.ghost)
        done;
        drop t s
      end
    | Invalidate { block } ->
      let s = Slots.find t.slots block in
      if s >= 0 then drop t s
    | Hint _ -> ()

  (* The minimum of (rank, Block.compare) over all resident blocks.
     Within a class the count term is one constant [A = w * freq] and
     the rank is [A + (1-w) * 1/(1 + pos - last)] with [1-w > 0]. IEEE
     division, multiplication by a positive constant and addition of a
     constant are each monotone under round-to-nearest, so the rank is
     non-decreasing in [last], which grows from the back of the list to
     the front. The class minimum is therefore its back block's rank,
     shared by the run of blocks next to it that round to the same
     value; the smallest packed key in that run is the class's
     candidate (Block.pack orders like Block.compare). The victim is
     the least of at most 16 candidates: the block a full scan picks.
     No closure, tuple, option or boxed float is built. *)
  let victim t ~pos ~missing:_ =
    let w = t.w and store = t.store and cnt = t.cnt and last = t.last in
    let keys = t.slots.Slots.keys in
    let best = ref (-1) and best_rank = ref 0.0 and best_key = ref 0 in
    for c = 0 to classes - 1 do
      let s = ref (Ilist.back t.lists.(c)) in
      if !s <> Ilist.nil then begin
        let r = rank w ~pos cnt.(!s) last.(!s) in
        let run = ref true in
        while !run do
          let k = keys.(!s) in
          if !best < 0 || r < !best_rank || (r = !best_rank && k < !best_key) then begin
            best := !s;
            best_rank := r;
            best_key := k
          end;
          s := Ilist.next_toward_front store !s;
          run := !s <> Ilist.nil && rank w ~pos cnt.(!s) last.(!s) = r
        done
      end
    done;
    if !best < 0 then failwith "AWRP: empty";
    t.slots.Slots.blocks.(!best)

  let stats t =
    [
      ("w", t.w);
      ("nudges", float_of_int t.nudges);
      ("ghost", float_of_int (Islab.length t.ghost));
      ("resident", float_of_int (Slots.length t.slots));
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
     they stay finite on any stream — asserted by qcheck.

     The resident set is a {!Dense} set with per-block columns; the
     frequency feature is cached when the count changes and the
     file-hash feature at admission, so the victim scan is one
     allocation-free loop over the columns. *)
  let n_features = 5

  let lr = 0.0625

  let w_clamp = 4.0

  type t = {
    cap : int;
    set : Dense.t;  (* resident blocks *)
    mutable cnt : int array;
    mutable last : int array;
    mutable level : int array;  (* from Hint events; 0 = unhinted *)
    mutable freq : float array;  (* frequency feature of [cnt] *)
    mutable file_hash : float array;  (* file-hash feature *)
    ghost : Islab.t;
    mutable ghost_x : float array;
        (* ghost slot s -> eviction-time features, at [n_features * s] *)
    w : float array;
    mutable updates : int;
  }

  let name = "PERCEPTRON"

  let summary = "online perceptron over recency/frequency/level/file features"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    let ghost = Islab.create capacity in
    {
      cap = Stdlib.max 1 capacity;
      set = Dense.create ();
      cnt = [||];
      last = [||];
      level = [||];
      freq = [||];
      file_hash = [||];
      ghost;
      ghost_x = Array.make (n_features * Islab.capacity ghost) 0.0;
      w = Array.make n_features 0.0;
      updates = 0;
    }

  (* One function per feature, shared by [victim] and the ghost
     vectors. *)
  let[@inline always] age_x t ~pos last =
    float_of_int (pos - last) /. float_of_int t.cap

  let[@inline always] freq_x cnt =
    let f = log (1.0 +. float_of_int cnt) /. log 256.0 in
    if 1.0 <= f then 1.0 else f

  let[@inline always] level_x level = float_of_int level /. 8.0

  let[@inline always] file_hash_x block =
    float_of_int (Block.file block * 2654435761 land 255) /. 255.0

  let clamp v =
    if v > w_clamp then w_clamp else if v < -.w_clamp then -.w_clamp else v

  (* Learn from the features of ghost slot [g]. *)
  let learn t g ~sign =
    for k = 0 to n_features - 1 do
      t.w.(k) <- clamp (t.w.(k) +. (sign *. lr *. t.ghost_x.((n_features * g) + k)))
    done;
    t.updates <- t.updates + 1

  let admit t ~pos block =
    let i = Dense.find t.set block in
    let i =
      if i >= 0 then i
      else begin
        let i = Dense.add t.set block in
        let n = Array.length t.set.Dense.blocks in
        if Array.length t.cnt < n then begin
          t.cnt <- grow_column t.cnt n 0;
          t.last <- grow_column t.last n 0;
          t.level <- grow_column t.level n 0;
          t.freq <- grow_column t.freq n 0.0;
          t.file_hash <- grow_column t.file_hash n 0.0
        end;
        i
      end
    in
    t.cnt.(i) <- 1;
    t.last.(i) <- pos;
    t.level.(i) <- 0;
    t.freq.(i) <- freq_x 1;
    t.file_hash.(i) <- file_hash_x block

  let remove t block =
    let i = Dense.remove t.set block in
    if i >= 0 then begin
      let n = t.set.Dense.n in
      t.cnt.(i) <- t.cnt.(n);
      t.last.(i) <- t.last.(n);
      t.level.(i) <- t.level.(n);
      t.freq.(i) <- t.freq.(n);
      t.file_hash.(i) <- t.file_hash.(n)
    end

  let on_event t = function
    | Reference { pos; block } ->
      let i = Dense.find t.set block in
      if i < 0 then failwith "PERCEPTRON: reference to non-resident block";
      t.cnt.(i) <- t.cnt.(i) + 1;
      t.last.(i) <- pos;
      t.freq.(i) <- freq_x t.cnt.(i)
    | Admit { pos; block } ->
      let g = Islab.find t.ghost block in
      if g >= 0 then begin
        (* Mistake: the stream wanted this block back. Blocks that look
           like it should score higher (be kept). *)
        learn t g ~sign:1.0;
        Islab.remove t.ghost block
      end;
      admit t ~pos block
    | Evict { block } ->
      let i = Dense.find t.set block in
      if i >= 0 then begin
        (* Remember the eviction-time features; score at [last] so the
           stored vector does not depend on when the kernel applied the
           decision. *)
        Islab.push_front t.ghost block;
        let g = Islab.slot t.ghost block in
        t.ghost_x <- grow_column t.ghost_x (n_features * Islab.capacity t.ghost) 0.0;
        let x = t.ghost_x and o = n_features * g in
        x.(o) <- 1.0;
        x.(o + 1) <- age_x t ~pos:t.last.(i) t.last.(i);
        x.(o + 2) <- t.freq.(i);
        x.(o + 3) <- level_x t.level.(i);
        x.(o + 4) <- t.file_hash.(i);
        while Islab.length t.ghost > t.cap do
          let b = Islab.back t.ghost in
          (* Expired un-referenced: the eviction was right. *)
          learn t (Islab.slot t.ghost b) ~sign:(-1.0);
          Islab.remove t.ghost b
        done;
        remove t block
      end
    | Invalidate { block } -> remove t block
    | Hint { block; level } ->
      let i = Dense.find t.set block in
      if i >= 0 then t.level.(i) <- level

  (* Lowest dot-product score loses; ties go to the smaller packed key
     (Block.pack orders like Block.compare), so the choice does not
     depend on the column order. The score sums the terms from 0.0 in
     feature order, as a dot product with a feature array does, so each
     score is bit-identical to that dot product. No closure, tuple,
     option or boxed float is built per block. *)
  let victim t ~pos ~missing:_ =
    let set = t.set in
    let n = set.Dense.n in
    if n = 0 then failwith "PERCEPTRON: empty";
    let w = t.w in
    let w0 = w.(0) and w1 = w.(1) and w2 = w.(2) and w3 = w.(3) and w4 = w.(4) in
    let keys = set.Dense.keys and last = t.last and level = t.level in
    let freq = t.freq and file_hash = t.file_hash in
    let best = ref 0 and best_score = ref 0.0 and best_key = ref 0 in
    for i = 0 to n - 1 do
      let s = 0.0 +. (w0 *. 1.0) in
      let s = s +. (w1 *. age_x t ~pos last.(i)) in
      let s = s +. (w2 *. freq.(i)) in
      let s = s +. (w3 *. level_x level.(i)) in
      let s = s +. (w4 *. file_hash.(i)) in
      let k = keys.(i) in
      if i = 0 || s < !best_score || (s = !best_score && k < !best_key) then begin
        best := i;
        best_score := s;
        best_key := k
      end
    done;
    set.Dense.blocks.(!best)

  let stats t =
    List.concat
      [
        Array.to_list (Array.mapi (fun k v -> (Printf.sprintf "w%d" k, v)) t.w);
        [
          ("updates", float_of_int t.updates);
          ("ghost", float_of_int (Islab.length t.ghost));
          ("resident", float_of_int t.set.Dense.n);
        ];
      ]
end
