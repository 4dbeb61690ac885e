(* The eleven replacement cores, each a {!Policy_core.CORE} state
   machine over the ids of one block table ({!Table}). The eight stock
   policies keep the exact victim behaviour of the offline lab's
   earlier per-policy modules (pinned by the record-twin lockstep in
   `bench check` and the behaviour suites). A victim query only peeks:
   the block leaves at {!Policy_core.CORE.evict}, so a live kernel may
   evict a block other than the one named (overrule, invalidation).

   No victim depends on how ids are numbered: every choice is made by
   list order, by the RNG over admission order, or by a total order on
   positions and packed keys. *)

module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Itbl = Acfc_core.Itbl

(* [a] grown to at least [cap] cells, the new ones set to [fill]. *)
let grow_column a cap fill =
  let old = Array.length a in
  if old >= cap then a
  else begin
    let b = Array.make (Stdlib.max cap (2 * old)) fill in
    Array.blit a 0 b 0 old;
    b
  end

(* A core's one block table: packed key -> dense id through an {!Itbl},
   id -> packed key through a column, and a free list threaded through
   that column (a released id's cell holds the next free id). It holds
   every block the core remembers, resident or ghost. Cores index their
   per-block columns by the id and grow them to {!capacity} after an
   {!add}. Allocation-free at steady state. *)
module Table = struct
  type t = {
    index : Itbl.t;
    mutable keys : int array;
    mutable free : int;  (* the head of the free list, or -1 *)
    mutable fresh : int;  (* ids from here on were never handed out *)
  }

  let create n =
    let n = Stdlib.max 16 n in
    { index = Itbl.create n; keys = Array.make n 0; free = -1; fresh = 0 }

  let capacity t = Array.length t.keys

  let length t = Itbl.length t.index

  let find t key = Itbl.find t.index key

  let key t id = t.keys.(id)

  (* Bind [key], which must not be remembered, to an id. *)
  let add t key =
    let id =
      if t.free >= 0 then begin
        let id = t.free in
        t.free <- t.keys.(id);
        id
      end
      else begin
        let id = t.fresh in
        if id = Array.length t.keys then t.keys <- grow_column t.keys (id + 1) 0;
        t.fresh <- id + 1;
        id
      end
    in
    t.keys.(id) <- key;
    Itbl.set t.index key id;
    id

  let release t id =
    Itbl.remove t.index t.keys.(id);
    t.keys.(id) <- t.free;
    t.free <- id
end

(* An indexed binary min-heap of ids, ordered by two int keys per id
   compared lexicographically. [hpos] maps an id to its heap index, so
   re-keying or removing an id is O(log n) and allocates nothing. The
   columns grow to the largest id seen. *)
module Iheap = struct
  type t = {
    mutable k1 : int array; (* id -> primary key *)
    mutable k2 : int array; (* id -> secondary key *)
    mutable hpos : int array; (* id -> heap index, -1 when absent *)
    mutable heap : int array; (* heap index -> id *)
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

  (* The minimum id, or [-1] when empty. *)
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

(* Min-heaps of the ids of one {!Table}, one heap per class, each
   ordered by packed key (distinct, so the order is total): the
   smallest id of a non-empty class [c] is [heaps.(c).(0)]. An id sits
   in at most one heap and [hpos] maps it to its index there, so adding
   and removing an id are O(log n); [live] lists the non-empty classes
   densely. Classes are small non-negative ints; the columns grow to
   the largest class and id seen, so nothing is allocated at steady
   state. *)
module Class_heaps = struct
  type t = {
    table : Table.t;
    mutable heaps : int array array;  (* class -> heap index -> id *)
    mutable sizes : int array;  (* class -> members *)
    mutable hpos : int array;  (* id -> index in its class's heap *)
    mutable live : int array;  (* the non-empty classes, at [0, nlive) *)
    mutable live_at : int array;  (* non-empty class -> index in [live] *)
    mutable nlive : int;
  }

  let create table =
    {
      table;
      heaps = [||];
      sizes = [||];
      hpos = Array.make (Table.capacity table) 0;
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

  (* Add id [s], in no heap, to class [c]. *)
  let add t c s =
    if c >= Array.length t.sizes then begin
      t.heaps <- grow_column t.heaps (c + 1) [||];
      t.sizes <- grow_column t.sizes (c + 1) 0;
      t.live <- grow_column t.live (c + 1) 0;
      t.live_at <- grow_column t.live_at (c + 1) 0
    end;
    if s >= Array.length t.hpos then t.hpos <- grow_column t.hpos (s + 1) 0;
    let n = t.sizes.(c) in
    if n = 0 then begin
      t.live.(t.nlive) <- c;
      t.live_at.(c) <- t.nlive;
      t.nlive <- t.nlive + 1
    end;
    if n = Array.length t.heaps.(c) then
      t.heaps.(c) <- grow_column t.heaps.(c) (Stdlib.max 8 (n + 1)) 0;
    t.sizes.(c) <- n + 1;
    sift_up t.table.Table.keys t.heaps.(c) t.hpos n s

  (* Remove id [s] from class [c], which holds it. *)
  let remove t c s =
    let keys = t.table.Table.keys and heap = t.heaps.(c) and hpos = t.hpos in
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

let ids table = ("ids", float_of_int (Table.length table))

(* One list of the resident ids in admission or recency order, newest
   at the front: LRU and MRU move a referenced block to the front,
   FIFO and CLOCK do not. *)
module Recency = struct
  type t = { table : Table.t; store : Ilist.store; list : Ilist.t }

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    let table = Table.create capacity in
    { table; store = Ilist.make_store (Table.capacity table); list = Ilist.create () }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  let reference t ~pos:_ id = Ilist.move_front t.store t.list id

  let admit t ~pos:_ key =
    let id = Table.add t.table key in
    Ilist.grow_store t.store (id + 1);
    Ilist.push_front t.store t.list id;
    id

  let evict t id =
    Ilist.remove t.store t.list id;
    Table.release t.table id

  let invalidate = evict

  let stats t = [ ("resident", float_of_int (Ilist.length t.list)); ids t.table ]
end

module Lru = struct
  include Recency

  let name = "LRU"

  let summary = "evict the least recently used block"

  let victim t ~pos:_ ~missing:_ = Ilist.back t.list
end

module Mru = struct
  include Recency

  let name = "MRU"

  let summary = "evict the most recently used block (sequential scans)"

  let victim t ~pos:_ ~missing:_ = Ilist.front t.list
end

module Fifo = struct
  include Recency

  let name = "FIFO"

  let summary = "evict in admission order; references do not rejuvenate"

  let reference _ ~pos:_ _ = ()

  let victim t ~pos:_ ~missing:_ = Ilist.back t.list
end

module Clock = struct
  (* The ring is the admission list with the hand at its back; a
     second chance moves the back block to the front. *)
  type t = { ring : Recency.t; mutable referenced : int array (* id -> 1 when set *) }

  let name = "CLOCK"

  let summary = "second-chance FIFO with per-block reference bits"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future =
    let ring = Recency.create ~capacity ~future in
    { ring; referenced = Array.make (Table.capacity ring.Recency.table) 0 }

  let find t key = Recency.find t.ring key

  let key t id = Recency.key t.ring id

  let reference t ~pos:_ id = t.referenced.(id) <- 1

  let admit t ~pos key =
    let id = Recency.admit t.ring ~pos key in
    if id >= Array.length t.referenced then
      t.referenced <- grow_column t.referenced (id + 1) 0;
    t.referenced.(id) <- 0;
    id

  let evict t id = Recency.evict t.ring id

  let invalidate = evict

  let rec victim t ~pos ~missing =
    let r = t.ring in
    let id = Ilist.back r.Recency.list in
    if id >= 0 && t.referenced.(id) = 1 then begin
      (* Second chance: clear the bit and move the hand on. *)
      t.referenced.(id) <- 0;
      Ilist.move_front r.Recency.store r.Recency.list id;
      victim t ~pos ~missing
    end
    else id

  let stats t = Recency.stats t.ring
end

module Lru_2 = struct
  (* Resident ids in a heap keyed (penultimate, last) reference
     position, so the eviction choice — oldest penultimate reference,
     ties broken by the older last reference — is the heap top instead
     of a full-table scan per miss. The key is a total order: each
     stream position references one block, so last positions are unique
     across resident blocks. *)
  type t = { table : Table.t; heap : Iheap.t }

  let name = "LRU-2"

  let summary = "evict the oldest penultimate reference (O'Neil LRU-K, K=2)"

  let adaptive = false

  let needs_future = false

  let never = -1

  let create ~capacity ~future:_ =
    let table = Table.create capacity in
    { table; heap = Iheap.create (Table.capacity table) }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  let reference t ~pos id = Iheap.set t.heap id (Iheap.key2 t.heap id) pos

  let admit t ~pos key =
    let id = Table.add t.table key in
    Iheap.set t.heap id never pos;
    id

  let evict t id =
    Iheap.remove t.heap id;
    Table.release t.table id

  let invalidate = evict

  let victim t ~pos:_ ~missing:_ = Iheap.top t.heap

  let stats t = [ ("resident", float_of_int (Iheap.length t.heap)); ids t.table ]
end

module Rand = struct
  (* Swap-with-last dense set of ids: uniform choice and eviction are
     both O(1). The RNG is seeded from the capacity, so the draw
     sequence — and therefore the victim sequence — is a pure function
     of (capacity, demand stream). *)
  type t = {
    rng : Acfc_sim.Rng.t;
    table : Table.t;
    mutable members : int array;  (* [0, n) -> id, in admission order up to swaps *)
    mutable at : int array;  (* id -> its index in [members] *)
    mutable n : int;
  }

  let name = "RAND"

  let summary = "evict a uniformly random resident block"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    let table = Table.create capacity in
    let n = Table.capacity table in
    {
      rng = Acfc_sim.Rng.create (capacity + 7);
      table;
      members = Array.make n 0;
      at = Array.make n 0;
      n = 0;
    }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  let reference _ ~pos:_ _ = ()

  let admit t ~pos:_ key =
    let id = Table.add t.table key in
    if id >= Array.length t.at then begin
      t.members <- grow_column t.members (id + 1) 0;
      t.at <- grow_column t.at (id + 1) 0
    end;
    t.members.(t.n) <- id;
    t.at.(id) <- t.n;
    t.n <- t.n + 1;
    id

  (* The last member fills the hole. *)
  let evict t id =
    let i = t.at.(id) and last = t.members.(t.n - 1) in
    t.members.(i) <- last;
    t.at.(last) <- i;
    t.n <- t.n - 1;
    Table.release t.table id

  let invalidate = evict

  let victim t ~pos:_ ~missing:_ =
    if t.n = 0 then -1 else t.members.(Acfc_sim.Rng.int t.rng t.n)

  let stats t = [ ("resident", float_of_int t.n); ids t.table ]
end

module Opt = struct
  (* Every distinct block of the stream gets an id up front, and keeps
     it. The stream's reference positions of each block are chained
     through [next], and [cursor] points at the block's first unconsumed
     one, which is its next use. Resident ids sit in a heap keyed (-next
     use, -packed key), so the farthest-future victim is the heap top.
     Next uses are unique positions except for never-used-again blocks
     (max_int); the packed key breaks that tie deterministically — by
     the largest [Block.compare] — and any choice among them yields the
     same miss count, since none is referenced again. *)
  type t = {
    table : Table.t;
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
    let table = Table.create (Stdlib.min n 1024) in
    let cursor = ref (Array.make (Table.capacity table) max_int) in
    let next = Array.make n max_int in
    for pos = n - 1 downto 0 do
      let key = Block.pack trace.(pos) in
      let id =
        match Table.find table key with
        | -1 ->
          let id = Table.add table key in
          cursor := grow_column !cursor (id + 1) max_int;
          id
        | id -> id
      in
      next.(pos) <- !cursor.(id);
      !cursor.(id) <- pos
    done;
    { table; next; cursor = !cursor; heap = Iheap.create (Table.length table) }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  (* Consume [pos] as block [id]'s next reference and re-key it at its
     following use; the block becomes (or stays) resident. *)
  let consume t ~pos id =
    if pos >= Array.length t.next || t.cursor.(id) <> pos then
      failwith "OPT: stream position mismatch";
    let use = t.next.(pos) in
    t.cursor.(id) <- use;
    Iheap.set t.heap id (-use) (-Table.key t.table id)

  let reference t ~pos id =
    if not (Iheap.mem t.heap id) then failwith "OPT: hit on non-resident block";
    consume t ~pos id

  let admit t ~pos key =
    let id = Table.find t.table key in
    if id < 0 then failwith "OPT: stream position mismatch";
    consume t ~pos id;
    id

  let evict t id = Iheap.remove t.heap id

  let invalidate = evict

  let victim t ~pos:_ ~missing:_ = Iheap.top t.heap

  let stats t = [ ("resident", float_of_int (Iheap.length t.heap)); ids t.table ]
end

module Two_q = struct
  (* Simplified full 2Q (Johnson & Shasha, VLDB '94 — contemporaneous
     with the paper): new pages enter the FIFO probation queue A1in;
     pages re-referenced after leaving it (tracked by the ghost queue
     A1out) are promoted to the protected LRU queue Am. A promoted page
     keeps its ghost entry until it ages out of A1out, so an id is
     released only once its block is neither resident nor a ghost. *)
  let nowhere = 0

  let in_a1in = 1

  let in_am = 2

  type t = {
    kin : int;  (* A1in capacity *)
    kout : int;  (* A1out ghost capacity *)
    table : Table.t;
    store : Ilist.store;
    a1in : Ilist.t;  (* newest at front *)
    am : Ilist.t;  (* MRU at front *)
    mutable where : int array;  (* id -> [nowhere], [in_a1in] or [in_am] *)
    mutable ghost : int array;  (* id -> 1 while in A1out *)
    a1out : int array;  (* ring of ghost ids, oldest at [head] *)
    mutable head : int;
    mutable ghosts : int;
  }

  let name = "2Q"

  let summary = "probation FIFO + protected LRU with a ghost promotion queue"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    let kout = Stdlib.max 1 (capacity / 2) in
    let table = Table.create (capacity + kout) in
    let n = Table.capacity table in
    {
      kin = Stdlib.max 1 (capacity / 4);
      kout;
      table;
      store = Ilist.make_store n;
      a1in = Ilist.create ();
      am = Ilist.create ();
      where = Array.make n nowhere;
      ghost = Array.make n 0;
      a1out = Array.make (kout + 1) 0;
      head = 0;
      ghosts = 0;
    }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  let forget_if_gone t id =
    if t.where.(id) = nowhere && t.ghost.(id) = 0 then Table.release t.table id

  (* Append [id] to A1out, expiring its oldest ghost past [kout]. *)
  let remember_ghost t id =
    let len = Array.length t.a1out in
    t.ghost.(id) <- 1;
    t.a1out.((t.head + t.ghosts) mod len) <- id;
    t.ghosts <- t.ghosts + 1;
    if t.ghosts > t.kout then begin
      let g = t.a1out.(t.head) in
      t.head <- (t.head + 1) mod len;
      t.ghosts <- t.ghosts - 1;
      t.ghost.(g) <- 0;
      forget_if_gone t g
    end

  let reference t ~pos:_ id =
    let q = t.where.(id) in
    if q = in_am then Ilist.move_front t.store t.am id
    else assert (q = in_a1in) (* classic 2Q: probation hits do not promote *)

  let admit t ~pos:_ key =
    let id = Table.find t.table key in
    if id >= 0 then begin
      (* A ghost, seen recently: promote straight to the protected
         queue. *)
      t.where.(id) <- in_am;
      Ilist.push_front t.store t.am id;
      id
    end
    else begin
      let id = Table.add t.table key in
      if id >= Array.length t.where then begin
        Ilist.grow_store t.store (id + 1);
        t.where <- grow_column t.where (id + 1) nowhere;
        t.ghost <- grow_column t.ghost (id + 1) 0
      end;
      t.where.(id) <- in_a1in;
      Ilist.push_front t.store t.a1in id;
      id
    end

  let evict t id =
    let q = t.where.(id) in
    t.where.(id) <- nowhere;
    if q = in_am then begin
      Ilist.remove t.store t.am id;
      forget_if_gone t id
    end
    else if q = in_a1in then begin
      (* A replaced probation page is remembered so a prompt
         re-reference proves it deserves the protected queue. *)
      Ilist.remove t.store t.a1in id;
      remember_ghost t id
    end

  (* Invalidation is not a replacement decision: no ghost entry. *)
  let invalidate t id =
    let q = t.where.(id) in
    if q <> nowhere then begin
      Ilist.remove t.store (if q = in_am then t.am else t.a1in) id;
      t.where.(id) <- nowhere;
      forget_if_gone t id
    end

  let victim t ~pos:_ ~missing:_ =
    if Ilist.length t.a1in > t.kin || Ilist.is_empty t.am then Ilist.back t.a1in
    else Ilist.back t.am

  let stats t =
    [
      ("a1in", float_of_int (Ilist.length t.a1in));
      ("am", float_of_int (Ilist.length t.am));
      ("ghost", float_of_int t.ghosts);
      ids t.table;
    ]
end

(* {2 Adaptive policies} *)

module Arc = struct
  (* Adaptive Replacement Cache (Megiddo & Modha, FAST '03): recency
     list T1 and frequency list T2 share the capacity; ghost lists B1/B2
     remember recent evictions from each, and a hit in a ghost list
     moves the adaptation target [p] (the size T1 "deserves") toward
     that list's side. The four lists link the table's ids through one
     store, and [where] names the list that holds each id; an evicted
     block keeps its id as a ghost. Ghost lists are bounded by the cache
     capacity — the qcheck suite drives random streams and asserts the
     bound after every call. *)
  let in_t1 = 0

  let in_t2 = 1

  let in_b1 = 2

  let in_b2 = 3

  type t = {
    cap : int;
    table : Table.t;
    store : Ilist.store;
    lists : Ilist.t array;  (* T1, T2, B1, B2, by [in_*]; MRU at front *)
    mutable where : int array;  (* id -> the list that holds it *)
    mutable p : int;  (* target size of T1, 0..cap *)
    mutable adapted_for : int;
        (* packed key of the missing block [victim] already adapted [p]
           for, so the admit that follows does not adapt twice; or -1 *)
  }

  let name = "ARC"

  let summary = "adaptive recency/frequency split with ghost-directed target"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    let cap = Stdlib.max 1 capacity in
    let table = Table.create (3 * cap) in
    let n = Table.capacity table in
    {
      cap;
      table;
      store = Ilist.make_store n;
      lists = Array.init 4 (fun _ -> Ilist.create ());
      where = Array.make n in_t1;
      p = 0;
      adapted_for = -1;
    }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  let length t l = Ilist.length t.lists.(l)

  (* Move [id] to the front of list [l]. *)
  let relink t id l =
    Ilist.remove t.store t.lists.(t.where.(id)) id;
    t.where.(id) <- l;
    Ilist.push_front t.store t.lists.(l) id

  let trim t l =
    let ghosts = t.lists.(l) in
    while Ilist.length ghosts > t.cap do
      let g = Ilist.back ghosts in
      Ilist.remove t.store ghosts g;
      Table.release t.table g
    done

  (* Move [p] toward the ghost list that holds [id], by the classic
     ratio step (at least 1). No-op for [-1] and resident ids. *)
  let adapt t id =
    if id >= 0 then begin
      let l = t.where.(id) and b1 = length t in_b1 and b2 = length t in_b2 in
      if l = in_b1 then t.p <- Stdlib.min t.cap (t.p + Stdlib.max 1 (if b1 = 0 then 1 else b2 / b1))
      else if l = in_b2 then
        t.p <- Stdlib.max 0 (t.p - Stdlib.max 1 (if b2 = 0 then 1 else b1 / b2))
    end

  let reference t ~pos:_ id =
    if t.where.(id) = in_t1 then relink t id in_t2 (* second reference: promote *)
    else Ilist.move_front t.store t.lists.(in_t2) id

  let admit t ~pos:_ key =
    let id = Table.find t.table key in
    if key <> t.adapted_for then adapt t id;
    t.adapted_for <- -1;
    if id >= 0 then begin
      (* A ghost hit re-enters directly on the frequency side. *)
      relink t id in_t2;
      id
    end
    else begin
      let id = Table.add t.table key in
      if id >= Array.length t.where then begin
        Ilist.grow_store t.store (id + 1);
        t.where <- grow_column t.where (id + 1) in_t1
      end;
      t.where.(id) <- in_t1;
      Ilist.push_front t.store t.lists.(in_t1) id;
      id
    end

  let evict t id =
    let l = t.where.(id) in
    if l = in_t1 then begin
      relink t id in_b1;
      trim t in_b1
    end
    else if l = in_t2 then begin
      relink t id in_b2;
      trim t in_b2
    end

  (* Dead contents teach nothing: forget the block without a ghost. *)
  let invalidate t id =
    let l = t.where.(id) in
    if l = in_t1 || l = in_t2 then begin
      Ilist.remove t.store t.lists.(l) id;
      Table.release t.table id
    end

  (* Classic REPLACE: shrink T1 when it exceeds its target (or exactly
     meets it and the missing block is a B2 ghost, about to grow T2). *)
  let victim t ~pos:_ ~missing =
    adapt t missing;
    t.adapted_for <- (if missing >= 0 then Table.key t.table missing else -1);
    let l1 = length t in_t1 in
    if l1 > 0 && (l1 > t.p || (missing >= 0 && t.where.(missing) = in_b2 && l1 = t.p)) then
      Ilist.back t.lists.(in_t1)
    else if length t in_t2 > 0 then Ilist.back t.lists.(in_t2)
    else Ilist.back t.lists.(in_t1)

  let stats t =
    [
      ("p", float_of_int t.p);
      ("t1", float_of_int (length t in_t1));
      ("t2", float_of_int (length t in_t2));
      ("b1", float_of_int (length t in_b1));
      ("b2", float_of_int (length t in_b2));
      ids t.table;
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
     [victim]), so a class's minimum is at its LRU end. An evicted
     block keeps its id, and its count, as a ghost. *)
  let classes = 16

  type t = {
    table : Table.t;  (* resident blocks and ghosts *)
    store : Ilist.store;
    lists : Ilist.t array;  (* class c = min cnt 16 - 1, MRU at front *)
    ghost : Ilist.t;  (* recent evictions, MRU at front, <= cap *)
    mutable ghosted : int array;  (* id -> 1 for a ghost *)
    mutable cnt : int array;  (* id -> references since admission, kept by a ghost *)
    mutable last : int array;  (* id -> position of the last one *)
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
    let cap = Stdlib.max 1 capacity in
    let table = Table.create (2 * cap) in
    let n = Table.capacity table in
    {
      table;
      store = Ilist.make_store n;
      lists = Array.init classes (fun _ -> Ilist.create ());
      ghost = Ilist.create ();
      ghosted = Array.make n 0;
      cnt = Array.make n 0;
      last = Array.make n 0;
      cap;
      w = 0.5;
      nudges = 0;
    }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  let[@inline always] class_of cnt = (if cnt < classes then cnt else classes) - 1

  (* w * saturating-frequency + (1-w) * recency. *)
  let[@inline always] rank w ~pos cnt last =
    let f = float_of_int cnt /. 16.0 in
    let freq = if 1.0 <= f then 1.0 else f in
    let recency = 1.0 /. float_of_int (1 + pos - last) in
    (w *. freq) +. ((1.0 -. w) *. recency)

  let unlink t id = Ilist.remove t.store t.lists.(class_of t.cnt.(id)) id

  let reference t ~pos id =
    let from = class_of t.cnt.(id) in
    t.cnt.(id) <- t.cnt.(id) + 1;
    t.last.(id) <- pos;
    let into = class_of t.cnt.(id) in
    if from = into then Ilist.move_front t.store t.lists.(into) id
    else begin
      Ilist.remove t.store t.lists.(from) id;
      Ilist.push_front t.store t.lists.(into) id
    end

  let admit t ~pos key =
    let id = Table.find t.table key in
    let id =
      if id < 0 then begin
        let id = Table.add t.table key in
        if id >= Array.length t.cnt then begin
          Ilist.grow_store t.store (id + 1);
          t.ghosted <- grow_column t.ghosted (id + 1) 0;
          t.cnt <- grow_column t.cnt (id + 1) 0;
          t.last <- grow_column t.last (id + 1) 0
        end;
        id
      end
      else if t.ghosted.(id) = 1 then begin
        (* The stream disagreed with an eviction: favour the term that
           would have retained this block. *)
        if t.cnt.(id) >= 2 then t.w <- Stdlib.min w_max (t.w +. step)
        else t.w <- Stdlib.max w_min (t.w -. step);
        t.nudges <- t.nudges + 1;
        Ilist.remove t.store t.ghost id;
        t.ghosted.(id) <- 0;
        id
      end
      else begin
        unlink t id;
        id
      end
    in
    t.cnt.(id) <- 1;
    t.last.(id) <- pos;
    Ilist.push_front t.store t.lists.(0) id;
    id

  let evict t id =
    if t.ghosted.(id) = 0 then begin
      unlink t id;
      t.ghosted.(id) <- 1;
      Ilist.push_front t.store t.ghost id;
      while Ilist.length t.ghost > t.cap do
        let g = Ilist.back t.ghost in
        Ilist.remove t.store t.ghost g;
        t.ghosted.(g) <- 0;
        Table.release t.table g
      done
    end

  let invalidate t id =
    if t.ghosted.(id) = 0 then begin
      unlink t id;
      Table.release t.table id
    end

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
    let keys = t.table.Table.keys in
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
    !best

  let stats t =
    let ghosts = Ilist.length t.ghost in
    [
      ("w", t.w);
      ("nudges", float_of_int t.nudges);
      ("ghost", float_of_int ghosts);
      ("resident", float_of_int (Table.length t.table - ghosts));
      ids t.table;
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
     made on first use and kept, so a ghost, which keeps its id, names
     its block's class in [cls], and each class knows the class one
     reference further on.

     LearnedCache's age and level features are left out. A ghost's
     age, taken at its own last reference, is always 0.0 and no call
     carries a level, so their weights would stay +0.0 and their terms
     would add nothing to any score (docs/PERF.md has the argument; the
     five-feature fold in test/policy_oracles.ml checks it). *)
  let lr = 0.0625

  let w_clamp = 4.0

  let max_cnt = 255

  type t = {
    cap : int;
    table : Table.t;  (* resident blocks and ghosts *)
    mutable cls : int array;  (* id -> class; a ghost's class at eviction *)
    members : Class_heaps.t;  (* class -> its resident ids *)
    first : int array;  (* file-hash byte -> class of count 1, or -1 *)
    mutable cnt : int array;  (* class -> reference count, <= [max_cnt] *)
    mutable next : int array;  (* class -> class of count + 1, or -1 *)
    mutable freq : float array;  (* class -> frequency feature *)
    mutable file_hash : float array;  (* class -> file-hash feature *)
    mutable classes : int;
    store : Ilist.store;  (* links of the ghost list *)
    ghost : Ilist.t;  (* recent evictions, MRU at front, <= cap *)
    mutable ghosted : int array;  (* id -> 1 for a ghost *)
    w : float array;  (* bias, frequency and file-hash weights *)
    mutable updates : int;
  }

  let name = "PERCEPTRON"

  let summary = "online perceptron over frequency and file-hash features, per class"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    let cap = Stdlib.max 1 capacity in
    let table = Table.create (2 * cap) in
    let n = Table.capacity table in
    {
      cap;
      table;
      cls = Array.make n 0;
      members = Class_heaps.create table;
      first = Array.make 256 (-1);
      cnt = [||];
      next = [||];
      freq = [||];
      file_hash = [||];
      classes = 0;
      store = Ilist.make_store n;
      ghost = Ilist.create ();
      ghosted = Array.make n 0;
      w = Array.make 3 0.0;
      updates = 0;
    }

  let find t key = Table.find t.table key

  let key t id = Table.key t.table id

  let[@inline always] freq_x cnt =
    let f = log (1.0 +. float_of_int cnt) /. log 256.0 in
    if 1.0 <= f then 1.0 else f

  let[@inline always] file_byte key = Block.packed_file key * 2654435761 land 255

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

  let reference t ~pos:_ id =
    let c = t.cls.(id) in
    let c' = succ t c in
    if c' <> c then begin
      Class_heaps.remove t.members c id;
      t.cls.(id) <- c';
      Class_heaps.add t.members c' id
    end

  let admit t ~pos:_ key =
    let id = Table.find t.table key in
    let id =
      if id < 0 then begin
        let id = Table.add t.table key in
        if id >= Array.length t.cls then begin
          Ilist.grow_store t.store (id + 1);
          t.cls <- grow_column t.cls (id + 1) 0;
          t.ghosted <- grow_column t.ghosted (id + 1) 0
        end;
        id
      end
      else if t.ghosted.(id) = 1 then begin
        (* Mistake: the stream wanted this block back. Blocks that look
           like it should score higher (be kept). *)
        learn t t.cls.(id) ~sign:1.0;
        Ilist.remove t.store t.ghost id;
        t.ghosted.(id) <- 0;
        id
      end
      else begin
        Class_heaps.remove t.members t.cls.(id) id;
        id
      end
    in
    let byte = file_byte key in
    if t.first.(byte) < 0 then begin
      let c = new_class t 1 (file_hash_x byte) in
      t.first.(byte) <- c
    end;
    t.cls.(id) <- t.first.(byte);
    Class_heaps.add t.members t.cls.(id) id;
    id

  let evict t id =
    if t.ghosted.(id) = 0 then begin
      Class_heaps.remove t.members t.cls.(id) id;
      t.ghosted.(id) <- 1;
      Ilist.push_front t.store t.ghost id;
      while Ilist.length t.ghost > t.cap do
        let g = Ilist.back t.ghost in
        (* Expired un-referenced: the eviction was right. *)
        learn t t.cls.(g) ~sign:(-1.0);
        Ilist.remove t.store t.ghost g;
        t.ghosted.(g) <- 0;
        Table.release t.table g
      done
    end

  let invalidate t id =
    if t.ghosted.(id) = 0 then begin
      Class_heaps.remove t.members t.cls.(id) id;
      Table.release t.table id
    end

  (* Lowest score loses; ties go to the smaller packed key (Block.pack
     orders like Block.compare), the smallest of its class. The score
     sums the terms from 0.0 in feature order, as a dot product with a
     feature array does, so it is bit-identical to the full fold in
     test/policy_oracles.ml. No closure, tuple, option or boxed float
     is built per class. *)
  let victim t ~pos:_ ~missing:_ =
    let m = t.members in
    let bias = 0.0 +. (t.w.(0) *. 1.0) and wf = t.w.(1) and wh = t.w.(2) in
    let freq = t.freq and file_hash = t.file_hash and heaps = m.Class_heaps.heaps in
    let keys = t.table.Table.keys and live = m.Class_heaps.live in
    let best = ref (-1) and best_score = ref 0.0 and best_key = ref 0 in
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
    !best

  (* The weights keep the numbers of the five-feature vector (bias,
     age, frequency, level, file hash) the oracle in
     test/policy_oracles.ml still folds. *)
  let stats t =
    let ghosts = Ilist.length t.ghost in
    [
      ("w0", t.w.(0));
      ("w2", t.w.(1));
      ("w4", t.w.(2));
      ("updates", float_of_int t.updates);
      ("ghost", float_of_int ghosts);
      ("resident", float_of_int (Table.length t.table - ghosts));
      ids t.table;
    ]
end
