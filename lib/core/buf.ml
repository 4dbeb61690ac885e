(* Columnar BUF: the block table is an open-addressing {!Itbl} from
   packed block ids to {!Ctab} slots, the global LRU list is an
   intrusive {!Ilist} over the shared columns, and placeholders live in
   a struct-of-arrays side table chained through the [ph_head] column.
   Blocks travel as packed keys ({!Block.pack}) from [read_packed] to
   the backend, so the steady-state hit and miss paths allocate
   nothing; a [Block.t] is built only for a trace event (when an obs
   sink is installed) or an upcall chooser.

   The test-only executable spec (test/oracle/cache_spec.ml) states
   the same rules over plain lists; `bench check` and the refinement
   tests hold this module, with {!Acm}, to it: identical results,
   obs trace streams, stats and list orders on recorded traces,
   generated corpora and control-path storms. *)

module Obs = Acfc_obs

type t = {
  config : Config.t;
  acm : Acm.t;
  tab : Ctab.t;
  backend : Backend.t;
  table : Itbl.t; (* packed block id -> slot *)
  global : Ilist.t; (* front = MRU, back = LRU *)
  (* Placeholder store: parallel arrays, free-listed through [ph_next].
     [ph_idx] maps packed replaced-block id -> placeholder slot;
     [ph_ring] keeps creation order (possibly stale keys) for recycling
     over the limit, the rule the spec states with a [Queue]: an int
     ring of [ph_queued] keys from [ph_first], empty until the first
     placeholder. *)
  mutable ph_key : int array;
  mutable ph_target : int array;
  mutable ph_chooser : int array;
  mutable ph_prev : int array; (* chain among placeholders of one target *)
  mutable ph_next : int array;
  mutable ph_free : int;
  ph_idx : Itbl.t;
  mutable ph_ring : int array; (* power-of-two length, or empty *)
  mutable ph_first : int;
  mutable ph_queued : int;
  mutable pid_hits_a : int array;
  mutable pid_misses_a : int array;
  mutable obs : Obs.Sink.t option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable overrule_count : int;
  mutable placeholders_created : int;
  mutable placeholders_used : int;
}

exception Cache_busy

let create config ~acm ~tab ~table ~backend =
  let ph_cap = max 8 (min 64 config.Config.max_placeholders) in
  {
    config;
    acm;
    tab;
    backend;
    table;
    global = Ilist.create ();
    ph_key = Array.make ph_cap 0;
    ph_target = Array.make ph_cap 0;
    ph_chooser = Array.make ph_cap 0;
    ph_prev = Array.make ph_cap (-1);
    ph_next = Array.init ph_cap (fun i -> if i + 1 < ph_cap then i + 1 else -1);
    ph_free = 0;
    ph_idx = Itbl.create 64;
    ph_ring = [||];
    ph_first = 0;
    ph_queued = 0;
    pid_hits_a = Array.make 8 0;
    pid_misses_a = Array.make 8 0;
    obs = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    overrule_count = 0;
    placeholders_created = 0;
    placeholders_used = 0;
  }

(* Conversion to the dependency-free observability types. *)
let oblk key = { Obs.Trace.file = Block.file key; index = Block.index key }

let set_obs t obs =
  t.obs <- obs;
  Acm.set_obs t.acm obs;
  match obs with
  | None -> ()
  | Some sink ->
    (* Gauges close over the existing statistics fields: sampling at
       snapshot time costs the hot path nothing. *)
    let m = Obs.Sink.metrics sink in
    let g name read = Obs.Metrics.gauge m name read in
    g "cache.hits" (fun () -> float_of_int t.hits);
    g "cache.misses" (fun () -> float_of_int t.misses);
    g "cache.evictions" (fun () -> float_of_int t.evictions);
    g "cache.writebacks" (fun () -> float_of_int t.writebacks);
    g "cache.overrules" (fun () -> float_of_int t.overrule_count);
    g "cache.placeholders_created" (fun () -> float_of_int t.placeholders_created);
    g "cache.placeholders_used" (fun () -> float_of_int t.placeholders_used);
    g "cache.resident" (fun () -> float_of_int (Itbl.length t.table));
    g "cache.capacity" (fun () -> float_of_int t.config.Config.capacity_blocks);
    g "cache.hit_ratio" (fun () ->
        let total = t.hits + t.misses in
        if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total)

let config t = t.config

let policy_name t = Config.alloc_policy_to_string t.config.Config.alloc_policy

let grow_pid_stats t pid =
  let n = max (pid + 1) (2 * Array.length t.pid_hits_a) in
  let grow a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.pid_hits_a <- grow t.pid_hits_a;
  t.pid_misses_a <- grow t.pid_misses_a

let bump_hit t pid =
  let p = Pid.to_int pid in
  if p >= Array.length t.pid_hits_a then grow_pid_stats t p;
  t.pid_hits_a.(p) <- t.pid_hits_a.(p) + 1

let bump_miss t pid =
  let p = Pid.to_int pid in
  if p >= Array.length t.pid_misses_a then grow_pid_stats t p;
  t.pid_misses_a.(p) <- t.pid_misses_a.(p) + 1

(* {2 Placeholder bookkeeping} *)

let ph_grow t =
  let old = Array.length t.ph_key in
  let cap = old * 2 in
  let grow a init =
    let b = Array.make cap init in
    Array.blit a 0 b 0 old;
    b
  in
  t.ph_key <- grow t.ph_key 0;
  t.ph_target <- grow t.ph_target 0;
  t.ph_chooser <- grow t.ph_chooser 0;
  t.ph_prev <- grow t.ph_prev (-1);
  t.ph_next <- grow t.ph_next (-1);
  for i = old to cap - 1 do
    t.ph_next.(i) <- (if i + 1 < cap then i + 1 else -1)
  done;
  t.ph_free <- old

let ph_alloc t =
  if t.ph_free < 0 then ph_grow t;
  let p = t.ph_free in
  t.ph_free <- t.ph_next.(p);
  p

let ph_release t p =
  t.ph_next.(p) <- t.ph_free;
  t.ph_free <- p

(* Detach the placeholder for packed key [pkey] from the index and its
   target's chain; returns its slot ([-1] if none). The slot is NOT
   released — the caller reads its fields and then [ph_release]s it. *)
let remove_placeholder t pkey =
  let p = Itbl.find t.ph_idx pkey in
  if p >= 0 then begin
    Itbl.remove t.ph_idx pkey;
    let prev = t.ph_prev.(p) and next = t.ph_next.(p) in
    if prev >= 0 then t.ph_next.(prev) <- next
    else t.tab.Ctab.ph_head.(t.ph_target.(p)) <- next;
    if next >= 0 then t.ph_prev.(next) <- prev
  end;
  p

let discard_placeholder t pkey =
  let p = remove_placeholder t pkey in
  if p >= 0 then ph_release t p

(* Forget every placeholder pointing at slot [s] (about to leave the
   cache). *)
let drop_placeholders_at t s =
  let p = ref t.tab.Ctab.ph_head.(s) in
  while !p >= 0 do
    let next = t.ph_next.(!p) in
    Itbl.remove t.ph_idx t.ph_key.(!p);
    ph_release t !p;
    p := next
  done;
  t.tab.Ctab.ph_head.(s) <- -1

let ring_push t key =
  let cap = Array.length t.ph_ring in
  if t.ph_queued = cap then begin
    let ring = Array.make (max 16 (2 * cap)) 0 in
    for i = 0 to t.ph_queued - 1 do
      ring.(i) <- t.ph_ring.((t.ph_first + i) land (cap - 1))
    done;
    t.ph_ring <- ring;
    t.ph_first <- 0
  end;
  t.ph_ring.((t.ph_first + t.ph_queued) land (Array.length t.ph_ring - 1)) <- key;
  t.ph_queued <- t.ph_queued + 1

(* The oldest key; the ring must not be empty. *)
let ring_take t =
  let key = t.ph_ring.(t.ph_first) in
  t.ph_first <- (t.ph_first + 1) land (Array.length t.ph_ring - 1);
  t.ph_queued <- t.ph_queued - 1;
  key

(* A placeholder for the block in slot [replaced], which is about to be
   evicted, pointing at slot [target]. *)
let add_placeholder t ~replaced ~target ~chooser =
  if t.config.Config.max_placeholders > 0 then begin
    let pkey = t.tab.Ctab.key.(replaced) in
    (* A resident block has no placeholder: [load] took it before the block entered. *)
    (* Recycle the oldest placeholders over the limit; the ring may hold
       keys of records already removed, which we just skip. A non-empty
       index implies a non-empty ring. *)
    while Itbl.length t.ph_idx >= t.config.Config.max_placeholders do
      discard_placeholder t (ring_take t)
    done;
    let p = ph_alloc t in
    t.ph_key.(p) <- pkey;
    t.ph_target.(p) <- target;
    t.ph_chooser.(p) <- Pid.to_int chooser;
    let head = t.tab.Ctab.ph_head.(target) in
    t.ph_prev.(p) <- -1;
    t.ph_next.(p) <- head;
    if head >= 0 then t.ph_prev.(head) <- p;
    t.tab.Ctab.ph_head.(target) <- p;
    Itbl.set t.ph_idx pkey p;
    ring_push t pkey;
    t.placeholders_created <- t.placeholders_created + 1;
    match t.obs with
    | None -> ()
    | Some sink ->
      Obs.Sink.emit sink
        (Obs.Trace.Placeholder_created
           {
             replaced = oblk (Ctab.block t.tab replaced);
             target = oblk (Ctab.block t.tab target);
             chooser = Pid.to_int chooser;
           })
  end

(* {2 Replacement} *)

(* Remove slot [s] from every structure. Runs before any blocking
   backend call so that re-entrant cache operations see a consistent
   state; the slot itself is released by the caller once it is done
   reading the columns. *)
let detach ?(invalidated = false) t s =
  Itbl.remove t.table t.tab.Ctab.key.(s);
  Ilist.remove t.tab.Ctab.global t.global s;
  drop_placeholders_at t s;
  Acm.block_gone ~invalidated t.acm s

(* LRU-end candidate, skipping pinned blocks and — while anything else
   is available — not-yet-referenced read-ahead blocks.

   The walk carries all its state in arguments: a local closure here
   (capturing a [fallback] ref) would cost two heap blocks per miss,
   which is most of the steady-state allocation budget. *)
let rec lru_walk store pinned flags s fallback =
  if s < 0 then if fallback >= 0 then fallback else raise Cache_busy
  else if pinned.(s) > 0 then
    lru_walk store pinned flags (Ilist.next_toward_front store s) fallback
  else if flags.(s) land Ctab.referenced_bit = 0 then
    lru_walk store pinned flags
      (Ilist.next_toward_front store s)
      (if fallback < 0 then s else fallback)
  else s

let lru_candidate t =
  let tab = t.tab in
  lru_walk tab.Ctab.global tab.Ctab.pinned tab.Ctab.flags (Ilist.back t.global) (-1)

(* Second-chance candidate for the CLOCK global order (Sec. 7's
   virtual-memory variant): the hand sweeps from the oldest end; a page
   with its reference bit set is given a second chance (bit cleared,
   rotated to the young end). Pinned and never-referenced read-ahead
   pages are rotated without clearing, with the same fallback rule as
   the LRU walk. Bounded by 2n rotations. *)
let rec clock_sweep tab glist budget fallback =
  if budget <= 0 then if fallback >= 0 then fallback else raise Cache_busy
  else begin
    let s = Ilist.back glist in
    if s < 0 then raise Cache_busy
    else if tab.Ctab.pinned.(s) > 0 then begin
      Ilist.move_front tab.Ctab.global glist s;
      clock_sweep tab glist (budget - 1) fallback
    end
    else if tab.Ctab.flags.(s) land Ctab.referenced_bit = 0 then begin
      Ilist.move_front tab.Ctab.global glist s;
      clock_sweep tab glist (budget - 1) (if fallback < 0 then s else fallback)
    end
    else if tab.Ctab.flags.(s) land Ctab.clock_bit <> 0 then begin
      tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.clock_bit;
      Ilist.move_front tab.Ctab.global glist s;
      clock_sweep tab glist (budget - 1) fallback
    end
    else s
  end

let clock_candidate t = clock_sweep t.tab t.global (2 * Ilist.length t.global) (-1)

let pick_candidate t =
  match t.config.Config.alloc_policy with
  | Config.Clock_sp -> clock_candidate t
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    lru_candidate t

(* Evict exactly one block to make room for packed key [missing]. [ph]
   is the consumed (already detached, not yet released) placeholder
   slot for [missing], or [-1]. *)
let evict_one t ~ph ~missing =
  let tab = t.tab in
  let candidate =
    if ph >= 0 && tab.Ctab.pinned.(t.ph_target.(ph)) = 0 then begin
      let target = t.ph_target.(ph) in
      let chooser = Pid.make t.ph_chooser.(ph) in
      t.placeholders_used <- t.placeholders_used + 1;
      (match t.obs with
      | None -> ()
      | Some sink ->
        Obs.Sink.emit sink
          (Obs.Trace.Placeholder_hit
             {
               missing = oblk (Block.unpack missing);
               target = oblk (Ctab.block tab target);
               chooser = Pid.to_int chooser;
             }));
      Acm.placeholder_used t.acm ~chooser;
      target
    end
    else pick_candidate t
  in
  let chosen =
    match t.config.Config.alloc_policy with
    | Config.Global_lru -> candidate
    | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp | Config.Clock_sp ->
      Acm.replace_block t.acm ~candidate ~missing
  in
  if chosen <> candidate then begin
    t.overrule_count <- t.overrule_count + 1;
    (match t.config.Config.alloc_policy with
    | Config.Lru_s | Config.Lru_sp | Config.Clock_sp ->
      (* Swap the global-list positions of the kernel's candidate and
         the manager's alternative (Fig. 2 of the paper). *)
      Ilist.swap tab.Ctab.global t.global candidate chosen;
      (match t.obs with
      | None -> ()
      | Some sink ->
        Obs.Sink.emit sink
          (Obs.Trace.Swap
             {
               kept = oblk (Ctab.block tab candidate);
               victim = oblk (Ctab.block tab chosen);
             }))
    | Config.Alloc_lru -> ()
    | Config.Global_lru -> assert false (* never consults, cannot overrule *));
    match t.config.Config.alloc_policy with
    | Config.Lru_sp | Config.Clock_sp ->
      let chooser =
        let m = tab.Ctab.managed.(chosen) in
        if m >= 0 then Pid.make m
        else assert false (* only managers overrule *)
      in
      add_placeholder t ~replaced:chosen ~target:candidate ~chooser
    | Config.Global_lru | Config.Alloc_lru | Config.Lru_s -> ()
  end;
  (match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink
      (Obs.Trace.Evict
         {
           victim = oblk (Ctab.block tab chosen);
           owner = tab.Ctab.owner.(chosen);
           candidate = oblk (Ctab.block tab candidate);
           policy = policy_name t;
           reason = "capacity";
         }));
  let victim = tab.Ctab.key.(chosen) in
  let dirty = tab.Ctab.flags.(chosen) land Ctab.dirty_bit <> 0 in
  detach t chosen;
  t.evictions <- t.evictions + 1;
  if dirty then begin
    t.writebacks <- t.writebacks + 1;
    (match t.obs with
    | None -> ()
    | Some sink -> Obs.Sink.emit sink (Obs.Trace.Writeback { block = oblk (Block.unpack victim) }));
    t.backend.Backend.write_block victim
  end;
  t.backend.Backend.evicted victim;
  Ctab.release tab chosen

(* Install packed key [pkey] in the cache, evicting if needed, and
   optionally fetch its contents. The slot is pinned during the fetch so
   re-entrant replacement cannot steal the frame; a fetch the backend
   completes later stays pinned until it reports the landing through
   [fetched]. *)
let load t ~pid pkey ~dirty ~fetch ~prefetched =
  let ph = remove_placeholder t pkey in
  if Itbl.length t.table >= t.config.Config.capacity_blocks then
    evict_one t ~ph ~missing:pkey;
  if ph >= 0 then ph_release t ph;
  let tab = t.tab in
  let s =
    Ctab.alloc tab ~file:(Block.packed_file pkey) ~index:(Block.packed_index pkey)
      ~key:pkey ~owner:(Pid.to_int pid)
  in
  tab.Ctab.flags.(s) <-
    (if prefetched then 0 else Ctab.referenced_bit)
    lor (if dirty then Ctab.dirty_bit else 0);
  Itbl.set t.table pkey s;
  Ilist.push_front tab.Ctab.global t.global s;
  Acm.new_block t.acm ~pid ~prefetched s;
  if fetch then begin
    tab.Ctab.pinned.(s) <- tab.Ctab.pinned.(s) + 1;
    match t.backend.Backend.read_block pkey with
    | true -> tab.Ctab.pinned.(s) <- tab.Ctab.pinned.(s) - 1
    | false -> ()
    | exception e ->
      tab.Ctab.pinned.(s) <- tab.Ctab.pinned.(s) - 1;
      raise e
  end

let fetched t pkey =
  let s = Itbl.find t.table pkey in
  if s < 0 || t.tab.Ctab.pinned.(s) = 0 then
    invalid_arg "Buf.fetched: no fetch of this block is in flight";
  t.tab.Ctab.pinned.(s) <- t.tab.Ctab.pinned.(s) - 1

let touch t ~pid s =
  let tab = t.tab in
  tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) lor Ctab.referenced_bit;
  (* Under CLOCK the global order is insertion/rotation order; a hit
     only sets the reference bit, exactly as a VM page cache's hardware
     bit would. *)
  (match t.config.Config.alloc_policy with
  | Config.Clock_sp -> tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) lor Ctab.clock_bit
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    Ilist.move_front tab.Ctab.global t.global s);
  Acm.block_accessed t.acm ~pid s

let obs_hit t ~pid pkey =
  match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink
      (Obs.Trace.Cache_hit { pid = Pid.to_int pid; block = oblk (Block.unpack pkey) })

let obs_miss t ~pid pkey ~prefetch =
  match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink
      (Obs.Trace.Cache_miss
         { pid = Pid.to_int pid; block = oblk (Block.unpack pkey); prefetch })

(* The one read path. The key's record is built only for an obs
   sink. *)
let read_packed ?(prefetch = false) t ~pid pkey =
  let s = Itbl.find t.table pkey in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    bump_hit t pid;
    obs_hit t ~pid pkey;
    touch t ~pid s;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    bump_miss t pid;
    obs_miss t ~pid pkey ~prefetch;
    load t ~pid pkey ~dirty:false ~fetch:true ~prefetched:prefetch;
    `Miss
  end

let write_packed t ~pid pkey ~fetch =
  let s = Itbl.find t.table pkey in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    bump_hit t pid;
    obs_hit t ~pid pkey;
    t.tab.Ctab.flags.(s) <- t.tab.Ctab.flags.(s) lor Ctab.dirty_bit;
    touch t ~pid s;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    bump_miss t pid;
    obs_miss t ~pid pkey ~prefetch:false;
    load t ~pid pkey ~dirty:true ~fetch ~prefetched:false;
    `Miss
  end

let sync t ?file () =
  let tab = t.tab in
  let wanted s =
    tab.Ctab.flags.(s) land Ctab.dirty_bit <> 0
    && (match file with Some f -> tab.Ctab.file.(s) = f | None -> true)
  in
  let dirty = ref [] in
  Itbl.iter (fun pkey s -> if wanted s then dirty := (pkey, s) :: !dirty) t.table;
  (* Write in address order: what a real flush daemon's sorted queue
     would do, and deterministic for tests. [Block.pack] is
     order-preserving, so sorting the packed ids is address order. *)
  let dirty =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !dirty
  in
  let written = ref 0 in
  List.iter
    (fun (pkey, _) ->
      (* Re-check against the block's current slot: a concurrent
         eviction may have flushed it already, or the frame may have
         been recycled for a fresh copy of the same block. *)
      let s = Itbl.find t.table pkey in
      if s >= 0 && tab.Ctab.flags.(s) land Ctab.dirty_bit <> 0 then begin
        tab.Ctab.pinned.(s) <- tab.Ctab.pinned.(s) + 1;
        tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.dirty_bit;
        t.writebacks <- t.writebacks + 1;
        incr written;
        (match t.obs with
        | None -> ()
        | Some sink ->
          Obs.Sink.emit sink (Obs.Trace.Writeback { block = oblk (Block.unpack pkey) }));
        (try t.backend.Backend.write_block pkey
         with e ->
           tab.Ctab.pinned.(s) <- tab.Ctab.pinned.(s) - 1;
           raise e);
        tab.Ctab.pinned.(s) <- tab.Ctab.pinned.(s) - 1
      end)
    dirty;
  !written

(* Clean and return the contiguous dirty run following [key]: blocks
   key+1, key+2, ... of the same file that are resident, dirty and
   unpinned, at most [max_blocks - 1] of them. The caller is about to
   write [key] to the device and commits to writing these in the same
   request (clustered write-back), so their dirty bits are cleared
   here. *)
let take_dirty_followers t key ~max_blocks =
  let tab = t.tab in
  let rec go i acc =
    if i >= max_blocks then List.rev acc
    else
      let next = Block.make ~file:(Block.file key) ~index:(Block.index key + i) in
      let s = Itbl.find t.table (Block.pack next) in
      if
        s >= 0
        && tab.Ctab.flags.(s) land Ctab.dirty_bit <> 0
        && tab.Ctab.pinned.(s) = 0
      then begin
        tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.dirty_bit;
        t.writebacks <- t.writebacks + 1;
        (match t.obs with
        | None -> ()
        | Some sink -> Obs.Sink.emit sink (Obs.Trace.Writeback { block = oblk next }));
        go (i + 1) (next :: acc)
      end
      else List.rev acc
  in
  if max_blocks <= 1 then [] else go 1 []

let invalidate_file t ~file =
  let tab = t.tab in
  let slots = ref [] in
  Itbl.iter (fun pkey s -> if tab.Ctab.file.(s) = file then slots := (pkey, s) :: !slots) t.table;
  (* Ascending block order: deterministic regardless of table layout. *)
  let slots = List.sort (fun (a, _) (b, _) -> Int.compare a b) !slots in
  let dropped = ref 0 in
  List.iter
    (fun (pkey, s) ->
      if Itbl.find t.table pkey = s && tab.Ctab.pinned.(s) = 0 then begin
        (match t.obs with
        | None -> ()
        | Some sink ->
          let key = Block.unpack pkey in
          Obs.Sink.emit sink
            (Obs.Trace.Evict
               {
                 victim = oblk key;
                 owner = tab.Ctab.owner.(s);
                 candidate = oblk key;
                 policy = policy_name t;
                 reason = "invalidate";
               }));
        detach ~invalidated:true t s;
        incr dropped;
        t.backend.Backend.evicted pkey;
        Ctab.release tab s
      end)
    slots;
  !dropped

let contains_packed t pkey = Itbl.mem t.table pkey

let is_dirty t key =
  let s = Itbl.find t.table (Block.pack key) in
  s >= 0 && t.tab.Ctab.flags.(s) land Ctab.dirty_bit <> 0

let length t = Itbl.length t.table

let capacity t = t.config.Config.capacity_blocks

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let writebacks t = t.writebacks
let overrule_count t = t.overrule_count
let placeholders_created t = t.placeholders_created
let placeholders_used t = t.placeholders_used
let placeholder_count t = Itbl.length t.ph_idx

let pid_hits t pid =
  let p = Pid.to_int pid in
  if p < Array.length t.pid_hits_a then t.pid_hits_a.(p) else 0

let pid_misses t pid =
  let p = Pid.to_int pid in
  if p < Array.length t.pid_misses_a then t.pid_misses_a.(p) else 0

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0;
  t.overrule_count <- 0;
  t.placeholders_created <- 0;
  t.placeholders_used <- 0;
  Array.fill t.pid_hits_a 0 (Array.length t.pid_hits_a) 0;
  Array.fill t.pid_misses_a 0 (Array.length t.pid_misses_a) 0

let lru_keys t =
  List.map (fun s -> Ctab.block t.tab s) (Ilist.to_list t.tab.Ctab.global t.global)

let check_invariants t =
  let tab = t.tab in
  if Itbl.length t.table > t.config.Config.capacity_blocks then
    failwith "Buf: over capacity";
  if Ilist.length t.global <> Itbl.length t.table then
    failwith "Buf: global list / table size mismatch";
  let on_list = ref 0 in
  Ilist.iter
    (fun s ->
      incr on_list;
      if Ctab.is_free tab s then failwith "Buf: free slot on global list";
      if Itbl.find t.table tab.Ctab.key.(s) <> s then
        failwith "Buf: global-list entry not in table")
    tab.Ctab.global t.global;
  (* The walk visited distinct slots, each the table's entry for its
     own key: as many as the table holds means every entry is on the
     list. *)
  if !on_list <> Itbl.length t.table then failwith "Buf: table entry not on global list";
  Itbl.iter
    (fun pkey s ->
      if Ctab.is_free tab s then failwith "Buf: table maps to free slot";
      if tab.Ctab.key.(s) <> pkey then failwith "Buf: table key/slot mismatch")
    t.table;
  Itbl.iter
    (fun pkey p ->
      if t.ph_key.(p) <> pkey then failwith "Buf: placeholder key mismatch";
      if Itbl.mem t.table pkey then failwith "Buf: placeholder for a resident block";
      let target = t.ph_target.(p) in
      if Ctab.is_free tab target then failwith "Buf: placeholder target freed";
      if Itbl.find t.table tab.Ctab.key.(target) <> target then
        failwith "Buf: placeholder target not resident";
      (* The placeholder must be on its target's incoming chain. *)
      let on_chain = ref false in
      let q = ref tab.Ctab.ph_head.(target) in
      while !q >= 0 do
        if !q = p then on_chain := true;
        q := t.ph_next.(!q)
      done;
      if not !on_chain then
        failwith "Buf: placeholder missing from target's incoming list")
    t.ph_idx;
  Acm.check_invariants t.acm
