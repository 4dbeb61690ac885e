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
   {!Block.pack}; removal moves the last member into the hole. *)
module Dense = struct
  type t = {
    index : Itbl.t; (* Block.pack -> index *)
    mutable blocks : Block.t array;
    mutable keys : int array;
    mutable n : int;
  }

  let create () = { index = Itbl.create 1024; blocks = [||]; keys = [||]; n = 0 }

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
    t.n <- i + 1

  (* No-op if [block] is absent. *)
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
    end
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

(* Min-heaps of the slots of one {!Slots}, one heap per class, each
   ordered by packed key (distinct, so the order is total): the
   smallest slot of a non-empty class [c] is [heaps.(c).(0)]. A slot
   sits in at most one heap and [hpos] maps it to its index there, so
   adding and removing a slot are O(log n); [live] lists the non-empty
   classes densely. Classes are small non-negative ints; the columns
   grow to the largest class and slot seen, so nothing is allocated at
   steady state. *)
module Class_heaps = struct
  type t = {
    slots : Slots.t;
    mutable heaps : int array array;  (* class -> heap index -> slot *)
    mutable sizes : int array;  (* class -> members *)
    mutable hpos : int array;  (* slot -> index in its class's heap *)
    mutable live : int array;  (* the non-empty classes, at [0, nlive) *)
    mutable live_at : int array;  (* non-empty class -> index in [live] *)
    mutable nlive : int;
  }

  let create slots =
    {
      slots;
      heaps = [||];
      sizes = [||];
      hpos = Array.make (Slots.capacity slots) 0;
      live = [||];
      live_at = [||];
      nlive = 0;
    }

  let[@inline always] place heap hpos i s =
    heap.(i) <- s;
    hpos.(s) <- i

  let rec sift_up keys heap hpos i s =
    if i = 0 then place heap hpos i s
    else
      let p = (i - 1) / 2 in
      let ps = heap.(p) in
      if keys.(s) < keys.(ps) then begin
        place heap hpos i ps;
        sift_up keys heap hpos p s
      end
      else place heap hpos i s

  let rec sift_down keys heap hpos n i s =
    let l = (2 * i) + 1 in
    if l >= n then place heap hpos i s
    else
      let c = if l + 1 < n && keys.(heap.(l + 1)) < keys.(heap.(l)) then l + 1 else l in
      let cs = heap.(c) in
      if keys.(cs) < keys.(s) then begin
        place heap hpos i cs;
        sift_down keys heap hpos n c s
      end
      else place heap hpos i s

  (* Add slot [s], in no heap, to class [c]. *)
  let add t c s =
    if c >= Array.length t.sizes then begin
      t.heaps <- grow_column t.heaps (c + 1) [||];
      t.sizes <- grow_column t.sizes (c + 1) 0;
      t.live <- grow_column t.live (c + 1) 0;
      t.live_at <- grow_column t.live_at (c + 1) 0
    end;
    if s >= Array.length t.hpos then
      t.hpos <- grow_column t.hpos (Slots.capacity t.slots) 0;
    let n = t.sizes.(c) in
    if n = 0 then begin
      t.live.(t.nlive) <- c;
      t.live_at.(c) <- t.nlive;
      t.nlive <- t.nlive + 1
    end;
    if n = Array.length t.heaps.(c) then
      t.heaps.(c) <- grow_column t.heaps.(c) (Stdlib.max 8 (n + 1)) 0;
    t.sizes.(c) <- n + 1;
    sift_up t.slots.Slots.keys t.heaps.(c) t.hpos n s

  (* Remove slot [s] from class [c], which holds it. *)
  let remove t c s =
    let keys = t.slots.Slots.keys and heap = t.heaps.(c) and hpos = t.hpos in
    let i = hpos.(s) and last = t.sizes.(c) - 1 in
    t.sizes.(c) <- last;
    if i < last then begin
      let m = heap.(last) in
      if i > 0 && keys.(m) < keys.(heap.((i - 1) / 2)) then sift_up keys heap hpos i m
      else sift_down keys heap hpos last i m
    end;
    if last = 0 then begin
      let j = t.live_at.(c) and moved = t.live.(t.nlive - 1) in
      t.live.(j) <- moved;
      t.live_at.(moved) <- j;
      t.nlive <- t.nlive - 1
    end
end

(* FIFO ring of (stamp, packed block) entries in two parallel int
   columns, over a power-of-two array. *)
module Ring = struct
  type t = {
    mutable stamps : int array;
    mutable keys : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { stamps = Array.make 16 0; keys = Array.make 16 0; head = 0; len = 0 }

  let length t = t.len

  let push t stamp key =
    let cap = Array.length t.keys in
    if t.len = cap then begin
      let stamps = Array.make (2 * cap) 0 and keys = Array.make (2 * cap) 0 in
      for i = 0 to t.len - 1 do
        let j = (t.head + i) land (cap - 1) in
        stamps.(i) <- t.stamps.(j);
        keys.(i) <- t.keys.(j)
      done;
      t.stamps <- stamps;
      t.keys <- keys;
      t.head <- 0
    end;
    let i = (t.head + t.len) land (Array.length t.keys - 1) in
    t.stamps.(i) <- stamp;
    t.keys.(i) <- key;
    t.len <- t.len + 1

  (* The front entry; the ring must not be empty. *)
  let front_stamp t = t.stamps.(t.head)

  let front_key t = t.keys.(t.head)

  let pop t =
    t.head <- (t.head + 1) land (Array.length t.keys - 1);
    t.len <- t.len - 1
end

(* FIFO-ordered queue of blocks that survives out-of-order removals: a
   {!Ring} of stamped entries plus a packed block -> live-stamp {!Itbl}.
   Removal just drops the table entry; stale ring entries are skipped
   when the front is inspected. The old destructive pop-at-choice
   behaviour is recovered by [drop] at eviction time. Blocks are packed
   keys throughout; only a victim is unpacked. *)
module Squeue = struct
  type t = { ring : Ring.t; live : Itbl.t; mutable stamp : int }

  let create () = { ring = Ring.create (); live = Itbl.create 1024; stamp = 0 }

  let length t = Itbl.length t.live

  let push t key =
    t.stamp <- t.stamp + 1;
    Itbl.set t.live key t.stamp;
    Ring.push t.ring t.stamp key

  (* Discard stale entries so the physical front is a live member.
     Stamps start at 1, so an absent key ([-1]) never matches. *)
  let rec settle t =
    let r = t.ring in
    if Ring.length r > 0 && Itbl.find t.live (Ring.front_key r) <> Ring.front_stamp r then begin
      Ring.pop r;
      settle t
    end

  let front_key t =
    settle t;
    if Ring.length t.ring = 0 then failwith "Squeue: empty";
    Ring.front_key t.ring

  let front t = Block.unpack (front_key t)

  (* Remove [key]; additionally pop it when it is the physical front,
     matching the destructive choice of the pre-core queue policies. *)
  let drop t key =
    settle t;
    let r = t.ring in
    if
      Ring.length r > 0
      && Ring.front_key r = key
      && Itbl.find t.live key = Ring.front_stamp r
    then Ring.pop r;
    Itbl.remove t.live key

  (* Rotate the live front entry to the tail (CLOCK second chance). *)
  let rotate t =
    let key = front_key t in
    let stamp = Ring.front_stamp t.ring in
    Ring.pop t.ring;
    Ring.push t.ring stamp key
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
    | Reference _ -> ()
    | Admit { block; _ } -> Squeue.push t (Block.pack block)
    | Evict { block } | Invalidate { block } -> Squeue.drop t (Block.pack block)

  let victim t ~pos:_ ~missing:_ = Squeue.front t

  let stats t = [ ("resident", float_of_int (Squeue.length t)) ]
end

module Clock = struct
  type t = { ring : Squeue.t; referenced : Itbl.t (* packed block -> 0 *) }

  let name = "CLOCK"

  let summary = "second-chance FIFO with per-block reference bits"

  let adaptive = false

  let needs_future = false

  let create ~capacity:_ ~future:_ =
    { ring = Squeue.create (); referenced = Itbl.create 1024 }

  let on_event t = function
    | Reference { block; _ } -> Itbl.set t.referenced (Block.pack block) 0
    | Admit { block; _ } -> Squeue.push t.ring (Block.pack block)
    | Evict { block } | Invalidate { block } ->
      let key = Block.pack block in
      Squeue.drop t.ring key;
      Itbl.remove t.referenced key

  let rec victim t ~pos ~missing =
    let key = Squeue.front_key t.ring in
    if Itbl.mem t.referenced key then begin
      (* Second chance: clear the bit and move the hand on. *)
      Itbl.remove t.referenced key;
      Squeue.rotate t.ring;
      victim t ~pos ~missing
    end
    else Block.unpack key

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
    | Reference _ -> ()
    | Admit { block; _ } -> Dense.add t.set block
    | Evict { block } | Invalidate { block } -> Dense.remove t.set block

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
  (* The queue a resident page is in, as [where] stores it. *)
  let in_a1in = 0

  let in_am = 1

  type t = {
    kin : int;  (* A1in capacity *)
    kout : int;  (* A1out ghost capacity *)
    a1in : Squeue.t;
    am : Islab.t;
    where : Itbl.t;  (* resident pages only: packed block -> [in_a1in] or [in_am] *)
    a1out : Ring.t;  (* ghosts: packed identities only, stamps unused *)
    ghost : Itbl.t;  (* packed block -> 0 *)
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
      where = Itbl.create 1024;
      a1out = Ring.create ();
      ghost = Itbl.create 1024;
    }

  let remember_ghost t key =
    Ring.push t.a1out 0 key;
    Itbl.set t.ghost key 0;
    while Ring.length t.a1out > t.kout do
      Itbl.remove t.ghost (Ring.front_key t.a1out);
      Ring.pop t.a1out
    done

  let on_event t = function
    | Reference { block; _ } ->
      let q = Itbl.find t.where (Block.pack block) in
      if q = in_am then Islab.move_front t.am block
      else if q = in_a1in then ()  (* classic 2Q: probation hits do not promote *)
      else assert false
    | Admit { block; _ } ->
      let key = Block.pack block in
      if Itbl.mem t.ghost key then begin
        (* Seen recently: promote straight to the protected queue. *)
        Itbl.set t.where key in_am;
        Islab.push_front t.am block
      end
      else begin
        Itbl.set t.where key in_a1in;
        Squeue.push t.a1in key
      end
    | Evict { block } ->
      let key = Block.pack block in
      let q = Itbl.find t.where key in
      if q = in_am then Islab.remove t.am block
      else if q = in_a1in then begin
        (* A replaced probation page is remembered so a prompt
           re-reference proves it deserves the protected queue. *)
        Squeue.drop t.a1in key;
        remember_ghost t key
      end;
      Itbl.remove t.where key
    | Invalidate { block } ->
      (* Invalidation is not a replacement decision: no ghost entry. *)
      let key = Block.pack block in
      let q = Itbl.find t.where key in
      if q = in_am then Islab.remove t.am block
      else if q = in_a1in then Squeue.drop t.a1in key;
      Itbl.remove t.where key

  let victim t ~pos:_ ~missing:_ =
    if Squeue.length t.a1in > t.kin || Islab.is_empty t.am then Squeue.front t.a1in
    else Islab.back t.am

  let stats t =
    [
      ("a1in", float_of_int (Squeue.length t.a1in));
      ("am", float_of_int (Islab.length t.am));
      ("ghost", float_of_int (Itbl.length t.ghost));
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
     (bias, saturating log reference count, file-id hash); the lowest
     score is evicted. Learning is ghost-driven: evicting a block that
     promptly returns was a mistake (weights move toward its features);
     a ghost expiring un-referenced confirms the eviction (weights move
     away). Weights are clamped, so they stay finite on any stream —
     asserted by qcheck.

     A block's features are those of its class: its reference count,
     capped at 255 where the frequency feature saturates, and its
     file-hash byte. All blocks of a class share one score, bit for
     bit, so the victim is the least (class score, smallest packed key)
     over the non-empty classes, kept in {!Class_heaps}. Classes are
     made on first use and kept, so a ghost names its block's class,
     and each class knows the class one reference further on.

     LearnedCache's age and level features are left out. A ghost's
     age, taken at its own last reference, is always 0.0 and no event
     carries a level, so their weights would stay +0.0 and their terms
     would add nothing to any score (docs/PERF.md has the argument; the
     five-feature fold in test/policy_oracles.ml checks it). *)
  let lr = 0.0625

  let w_clamp = 4.0

  let max_cnt = 255

  type t = {
    cap : int;
    slots : Slots.t;  (* resident blocks *)
    mutable cls : int array;  (* slot -> class *)
    members : Class_heaps.t;  (* class -> its resident slots *)
    first : int array;  (* file-hash byte -> class of count 1, or -1 *)
    mutable cnt : int array;  (* class -> reference count, <= [max_cnt] *)
    mutable next : int array;  (* class -> class of count + 1, or -1 *)
    mutable freq : float array;  (* class -> frequency feature *)
    mutable file_hash : float array;  (* class -> file-hash feature *)
    mutable classes : int;
    ghost : Islab.t;
    mutable ghost_cls : int array;  (* ghost slot -> class at eviction *)
    w : float array;  (* bias, frequency and file-hash weights *)
    mutable updates : int;
  }

  let name = "PERCEPTRON"

  let summary = "online perceptron over frequency and file-hash features, per class"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    let slots = Slots.create capacity and ghost = Islab.create capacity in
    {
      cap = Stdlib.max 1 capacity;
      slots;
      cls = Array.make (Slots.capacity slots) 0;
      members = Class_heaps.create slots;
      first = Array.make 256 (-1);
      cnt = [||];
      next = [||];
      freq = [||];
      file_hash = [||];
      classes = 0;
      ghost;
      ghost_cls = Array.make (Islab.capacity ghost) 0;
      w = Array.make 3 0.0;
      updates = 0;
    }

  let[@inline always] freq_x cnt =
    let f = log (1.0 +. float_of_int cnt) /. log 256.0 in
    if 1.0 <= f then 1.0 else f

  let[@inline always] file_byte block = Block.file block * 2654435761 land 255

  let[@inline always] file_hash_x byte = float_of_int byte /. 255.0

  let[@inline always] clamp v =
    if v > w_clamp then w_clamp else if v < -.w_clamp then -.w_clamp else v

  (* Learn from the features of class [c]. *)
  let learn t c ~sign =
    let w = t.w in
    w.(0) <- clamp (w.(0) +. (sign *. lr *. 1.0));
    w.(1) <- clamp (w.(1) +. (sign *. lr *. t.freq.(c)));
    w.(2) <- clamp (w.(2) +. (sign *. lr *. t.file_hash.(c)));
    t.updates <- t.updates + 1

  (* A new class of count [cnt] and file-hash feature [fh]. *)
  let new_class t cnt fh =
    let c = t.classes in
    if c = Array.length t.cnt then begin
      t.cnt <- grow_column t.cnt (c + 1) 0;
      t.next <- grow_column t.next (c + 1) 0;
      t.freq <- grow_column t.freq (c + 1) 0.0;
      t.file_hash <- grow_column t.file_hash (c + 1) 0.0
    end;
    t.cnt.(c) <- cnt;
    t.next.(c) <- (if cnt = max_cnt then c else -1);
    t.freq.(c) <- freq_x cnt;
    t.file_hash.(c) <- fh;
    t.classes <- c + 1;
    c

  (* The class one reference on from [c], made on first use. *)
  let succ t c =
    if t.next.(c) < 0 then begin
      let n = new_class t (t.cnt.(c) + 1) t.file_hash.(c) in
      t.next.(c) <- n
    end;
    t.next.(c)

  let admit t block =
    let s = Slots.find t.slots block in
    let s =
      if s >= 0 then begin
        Class_heaps.remove t.members t.cls.(s) s;
        s
      end
      else begin
        let s = Slots.add t.slots block in
        t.cls <- grow_column t.cls (Slots.capacity t.slots) 0;
        s
      end
    in
    let byte = file_byte block in
    if t.first.(byte) < 0 then begin
      let c = new_class t 1 (file_hash_x byte) in
      t.first.(byte) <- c
    end;
    t.cls.(s) <- t.first.(byte);
    Class_heaps.add t.members t.cls.(s) s

  let remove t s =
    Class_heaps.remove t.members t.cls.(s) s;
    Slots.release t.slots s

  let on_event t = function
    | Reference { block; _ } ->
      let s = Slots.find t.slots block in
      if s < 0 then failwith "PERCEPTRON: reference to non-resident block";
      let c = t.cls.(s) in
      let c' = succ t c in
      if c' <> c then begin
        Class_heaps.remove t.members c s;
        t.cls.(s) <- c';
        Class_heaps.add t.members c' s
      end
    | Admit { block; _ } ->
      let g = Islab.find t.ghost block in
      if g >= 0 then begin
        (* Mistake: the stream wanted this block back. Blocks that look
           like it should score higher (be kept). *)
        learn t t.ghost_cls.(g) ~sign:1.0;
        Islab.remove t.ghost block
      end;
      admit t block
    | Evict { block } ->
      let s = Slots.find t.slots block in
      if s >= 0 then begin
        (* Remember the evicted block's class, whose features never
           change. *)
        Islab.push_front t.ghost block;
        t.ghost_cls <- grow_column t.ghost_cls (Islab.capacity t.ghost) 0;
        t.ghost_cls.(Islab.slot t.ghost block) <- t.cls.(s);
        while Islab.length t.ghost > t.cap do
          let b = Islab.back t.ghost in
          (* Expired un-referenced: the eviction was right. *)
          learn t t.ghost_cls.(Islab.slot t.ghost b) ~sign:(-1.0);
          Islab.remove t.ghost b
        done;
        remove t s
      end
    | Invalidate { block } ->
      let s = Slots.find t.slots block in
      if s >= 0 then remove t s

  (* Lowest score loses; ties go to the smaller packed key (Block.pack
     orders like Block.compare), the smallest of its class. The score
     sums the terms from 0.0 in feature order, as a dot product with a
     feature array does, so it is bit-identical to the full fold in
     test/policy_oracles.ml. No closure, tuple, option or boxed float
     is built per class. *)
  let victim t ~pos:_ ~missing:_ =
    let m = t.members in
    if m.Class_heaps.nlive = 0 then failwith "PERCEPTRON: empty";
    let bias = 0.0 +. (t.w.(0) *. 1.0) and wf = t.w.(1) and wh = t.w.(2) in
    let freq = t.freq and file_hash = t.file_hash and heaps = m.Class_heaps.heaps in
    let keys = t.slots.Slots.keys and live = m.Class_heaps.live in
    let best = ref 0 and best_score = ref 0.0 and best_key = ref 0 in
    for j = 0 to m.Class_heaps.nlive - 1 do
      let c = live.(j) in
      let score = bias +. (wf *. freq.(c)) +. (wh *. file_hash.(c)) in
      let s = heaps.(c).(0) in
      let k = keys.(s) in
      if j = 0 || score < !best_score || (score = !best_score && k < !best_key) then begin
        best := s;
        best_score := score;
        best_key := k
      end
    done;
    t.slots.Slots.blocks.(!best)

  (* The weights keep the numbers of the five-feature vector (bias,
     age, frequency, level, file hash) the oracle in
     test/policy_oracles.ml still folds. *)
  let stats t =
    [
      ("w0", t.w.(0));
      ("w2", t.w.(1));
      ("w4", t.w.(2));
      ("updates", float_of_int t.updates);
      ("ghost", float_of_int (Islab.length t.ghost));
      ("resident", float_of_int (Slots.length t.slots));
    ]
end
