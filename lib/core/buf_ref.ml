module Obs = Acfc_obs

type placeholder = { target : Entry.t; chooser : Pid.t }

type pid_stats = { mutable p_hits : int; mutable p_misses : int }

type t = {
  config : Config.t;
  acm : Acm_ref.t;
  backend : Backend.t;
  table : (Block.t, Entry.t) Hashtbl.t;
  global : Entry.t Dll.t;  (* front = MRU, back = LRU *)
  placeholders : (Block.t, placeholder) Hashtbl.t;
  ph_fifo : Block.t Queue.t;  (* creation order, for recycling over the limit *)
  per_pid : (Pid.t, pid_stats) Hashtbl.t;
  mutable tracer : (Event.t -> unit) option;
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

let create config ~acm ~backend =
  {
    config;
    acm;
    backend;
    table = Hashtbl.create (2 * config.Config.capacity_blocks);
    global = Dll.create ();
    placeholders = Hashtbl.create 64;
    ph_fifo = Queue.create ();
    per_pid = Hashtbl.create 8;
    tracer = None;
    obs = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    overrule_count = 0;
    placeholders_created = 0;
    placeholders_used = 0;
  }

let set_tracer t tracer =
  t.tracer <- tracer;
  Acm_ref.set_tracer t.acm tracer

(* Conversion to the dependency-free observability types. *)
let oblk key = { Obs.Trace.file = Block.file key; index = Block.index key }

let set_obs t obs =
  t.obs <- obs;
  Acm_ref.set_obs t.acm obs;
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
    g "cache.resident" (fun () -> float_of_int (Hashtbl.length t.table));
    g "cache.capacity" (fun () -> float_of_int t.config.Config.capacity_blocks);
    g "cache.hit_ratio" (fun () ->
        let total = t.hits + t.misses in
        if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total)

let config t = t.config

let emit t ev = match t.tracer with Some f -> f ev | None -> ()

let policy_name t = Config.alloc_policy_to_string t.config.Config.alloc_policy

let pid_stats t pid =
  match Hashtbl.find_opt t.per_pid pid with
  | Some s -> s
  | None ->
    let s = { p_hits = 0; p_misses = 0 } in
    Hashtbl.replace t.per_pid pid s;
    s

(* {2 Placeholder bookkeeping} *)

let remove_placeholder t key =
  match Hashtbl.find_opt t.placeholders key with
  | None -> None
  | Some ph ->
    Hashtbl.remove t.placeholders key;
    Entry.remove_incoming ph.target key;
    Some ph

(* Forget every placeholder pointing at [e] (about to leave the cache). *)
let drop_placeholders_at t (e : Entry.t) =
  Entry.iter_incoming (fun key -> Hashtbl.remove t.placeholders key) e;
  Entry.clear_incoming e

let add_placeholder t ~replaced ~target ~chooser =
  if t.config.Config.max_placeholders > 0 then begin
    (* Replace any stale record for the same block. *)
    ignore (remove_placeholder t replaced);
    (* Recycle the oldest placeholders over the limit; the FIFO may hold
       keys of records already removed, which we just skip. *)
    while Hashtbl.length t.placeholders >= t.config.Config.max_placeholders do
      match Queue.take_opt t.ph_fifo with
      | None -> assert false  (* table non-empty implies FIFO non-empty *)
      | Some key -> ignore (remove_placeholder t key)
    done;
    Hashtbl.replace t.placeholders replaced { target; chooser };
    Queue.push replaced t.ph_fifo;
    Entry.add_incoming target replaced;
    t.placeholders_created <- t.placeholders_created + 1;
    emit t (Event.Placeholder_created { replaced; target = target.Entry.key; chooser });
    match t.obs with
    | None -> ()
    | Some sink ->
      Obs.Sink.emit sink
        (Obs.Trace.Placeholder_created
           {
             replaced = oblk replaced;
             target = oblk target.Entry.key;
             chooser = Pid.to_int chooser;
           })
  end

(* {2 Replacement} *)

let global_node_exn (e : Entry.t) =
  match e.Entry.global_node with
  | Some node -> node
  | None -> invalid_arg "Buf_ref: entry has no global node"

(* Remove [e] from every structure. Runs before any blocking backend
   call so that re-entrant cache operations see a consistent state. *)
let detach t (e : Entry.t) =
  Hashtbl.remove t.table e.Entry.key;
  Dll.remove t.global (global_node_exn e);
  e.Entry.global_node <- None;
  drop_placeholders_at t e;
  Acm_ref.block_gone t.acm e

(* LRU-end candidate, skipping pinned blocks and — while anything else
   is available — not-yet-referenced read-ahead blocks. *)
let lru_candidate t =
  let fallback = ref None in
  let rec walk = function
    | None -> (match !fallback with Some e -> e | None -> raise Cache_busy)
    | Some node ->
      let e = Dll.value node in
      if Entry.is_pinned e then walk (Dll.next_toward_front node)
      else if not e.Entry.referenced then begin
        if Option.is_none !fallback then fallback := Some e;
        walk (Dll.next_toward_front node)
      end
      else e
  in
  walk (Dll.back t.global)

(* Second-chance candidate for the CLOCK global order (Sec. 7's
   virtual-memory variant): the hand sweeps from the oldest end; a page
   with its reference bit set is given a second chance (bit cleared,
   rotated to the young end). Pinned and never-referenced read-ahead
   pages are rotated without clearing, with the same fallback rule as
   the LRU walk. Bounded by 2n rotations. *)
let clock_candidate t =
  let fallback = ref None in
  let budget = ref (2 * Dll.length t.global) in
  let rec sweep () =
    if !budget <= 0 then
      match !fallback with Some e -> e | None -> raise Cache_busy
    else begin
      decr budget;
      match Dll.back t.global with
      | None -> raise Cache_busy
      | Some node ->
        let e = Dll.value node in
        if Entry.is_pinned e then begin
          Dll.move_front t.global node;
          sweep ()
        end
        else if not e.Entry.referenced then begin
          if Option.is_none !fallback then fallback := Some e;
          Dll.move_front t.global node;
          sweep ()
        end
        else if e.Entry.clock_ref then begin
          e.Entry.clock_ref <- false;
          Dll.move_front t.global node;
          sweep ()
        end
        else e
    end
  in
  sweep ()

let pick_candidate t =
  match t.config.Config.alloc_policy with
  | Config.Clock_sp -> clock_candidate t
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    lru_candidate t

(* Swap the global-list positions of the kernel's candidate and the
   manager's alternative (Fig. 2 of the paper). *)
let swap_global t (a : Entry.t) (b : Entry.t) =
  Dll.swap_values t.global (global_node_exn a) (global_node_exn b)
    ~on_move:(fun (e : Entry.t) node -> e.Entry.global_node <- Some node)

(* Evict exactly one block to make room for [missing]. [ph] is the
   consumed placeholder for [missing], if there was one. *)
let evict_one t ~ph ~missing =
  let candidate =
    match ph with
    | Some p when not (Entry.is_pinned p.target) ->
      t.placeholders_used <- t.placeholders_used + 1;
      emit t
        (Event.Placeholder_used
           { missing; target = p.target.Entry.key; chooser = p.chooser });
      (match t.obs with
      | None -> ()
      | Some sink ->
        Obs.Sink.emit sink
          (Obs.Trace.Placeholder_hit
             {
               missing = oblk missing;
               target = oblk p.target.Entry.key;
               chooser = Pid.to_int p.chooser;
             }));
      Acm_ref.placeholder_used t.acm ~chooser:p.chooser ~missing ~target:p.target;
      p.target
    | Some _ | None -> pick_candidate t
  in
  let chosen =
    match t.config.Config.alloc_policy with
    | Config.Global_lru -> candidate
    | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp | Config.Clock_sp ->
      Acm_ref.replace_block t.acm ~candidate ~missing
  in
  let overruled = chosen != candidate in
  if overruled then begin
    t.overrule_count <- t.overrule_count + 1;
    (match t.config.Config.alloc_policy with
    | Config.Lru_s | Config.Lru_sp | Config.Clock_sp ->
      swap_global t candidate chosen;
      (match t.obs with
      | None -> ()
      | Some sink ->
        Obs.Sink.emit sink
          (Obs.Trace.Swap
             { kept = oblk candidate.Entry.key; victim = oblk chosen.Entry.key }))
    | Config.Alloc_lru -> ()
    | Config.Global_lru -> assert false (* never consults, cannot overrule *));
    match t.config.Config.alloc_policy with
    | Config.Lru_sp | Config.Clock_sp ->
      let chooser =
        match chosen.Entry.managed_by with
        | Some pid -> pid
        | None -> assert false (* only managers overrule *)
      in
      add_placeholder t ~replaced:chosen.Entry.key ~target:candidate ~chooser
    | Config.Global_lru | Config.Alloc_lru | Config.Lru_s -> ()
  end;
  emit t
    (Event.Evict
       {
         victim = chosen.Entry.key;
         owner = chosen.Entry.owner;
         candidate = candidate.Entry.key;
         overruled;
       });
  (match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink
      (Obs.Trace.Evict
         {
           victim = oblk chosen.Entry.key;
           owner = Pid.to_int chosen.Entry.owner;
           candidate = oblk candidate.Entry.key;
           policy = policy_name t;
           reason = "capacity";
         }));
  detach t chosen;
  t.evictions <- t.evictions + 1;
  if chosen.Entry.dirty then begin
    t.writebacks <- t.writebacks + 1;
    emit t (Event.Writeback chosen.Entry.key);
    (match t.obs with
    | None -> ()
    | Some sink ->
      Obs.Sink.emit sink (Obs.Trace.Writeback { block = oblk chosen.Entry.key }));
    t.backend.Backend.write_block (Block.pack chosen.Entry.key)
  end;
  t.backend.Backend.evicted (Block.pack chosen.Entry.key)

(* Install [key] in the cache, evicting if needed, and optionally fetch
   its contents. The entry is pinned during the fetch so re-entrant
   replacement cannot steal the frame; a fetch the backend completes
   later stays pinned until it reports the landing through [fetched]. *)
let load t ~pid key ~dirty ~fetch ~prefetched =
  let ph = remove_placeholder t key in
  if Hashtbl.length t.table >= t.config.Config.capacity_blocks then
    evict_one t ~ph ~missing:key;
  let e = Entry.make ~key ~owner:pid in
  e.Entry.referenced <- not prefetched;
  e.Entry.dirty <- dirty;
  Hashtbl.replace t.table key e;
  e.Entry.global_node <- Some (Dll.push_front t.global e);
  Acm_ref.new_block t.acm ~pid ~prefetched e;
  if fetch then begin
    Entry.pin e;
    match t.backend.Backend.read_block (Block.pack key) with
    | true -> Entry.unpin e
    | false -> ()
    | exception ex ->
      Entry.unpin e;
      raise ex
  end

let fetched t pkey =
  match Hashtbl.find_opt t.table (Block.unpack pkey) with
  | Some e when Entry.is_pinned e -> Entry.unpin e
  | Some _ | None -> invalid_arg "Buf_ref.fetched: no fetch of this block is in flight"

let touch t ~pid (e : Entry.t) =
  e.Entry.referenced <- true;
  (* Under CLOCK the global order is insertion/rotation order; a hit
     only sets the reference bit, exactly as a VM page cache's hardware
     bit would. *)
  (match t.config.Config.alloc_policy with
  | Config.Clock_sp -> e.Entry.clock_ref <- true
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    Dll.move_front t.global (global_node_exn e));
  Acm_ref.block_accessed t.acm ~pid e

let obs_hit t ~pid key =
  match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink
      (Obs.Trace.Cache_hit { pid = Pid.to_int pid; block = oblk key })

let obs_miss t ~pid key ~prefetch =
  match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink
      (Obs.Trace.Cache_miss { pid = Pid.to_int pid; block = oblk key; prefetch })

let read ?(prefetch = false) t ~pid key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    (pid_stats t pid).p_hits <- (pid_stats t pid).p_hits + 1;
    emit t (Event.Hit { pid; block = key });
    obs_hit t ~pid key;
    touch t ~pid e;
    `Hit
  | None ->
    t.misses <- t.misses + 1;
    (pid_stats t pid).p_misses <- (pid_stats t pid).p_misses + 1;
    emit t (Event.Miss { pid; block = key; prefetch });
    obs_miss t ~pid key ~prefetch;
    load t ~pid key ~dirty:false ~fetch:true ~prefetched:prefetch;
    `Miss

let write t ~pid key ~fetch =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    (pid_stats t pid).p_hits <- (pid_stats t pid).p_hits + 1;
    emit t (Event.Hit { pid; block = key });
    obs_hit t ~pid key;
    e.Entry.dirty <- true;
    touch t ~pid e;
    `Hit
  | None ->
    t.misses <- t.misses + 1;
    (pid_stats t pid).p_misses <- (pid_stats t pid).p_misses + 1;
    emit t (Event.Miss { pid; block = key; prefetch = false });
    obs_miss t ~pid key ~prefetch:false;
    load t ~pid key ~dirty:true ~fetch ~prefetched:false;
    `Miss

let sync t ?file () =
  let wanted (e : Entry.t) =
    e.Entry.dirty
    && (match file with Some f -> Block.file e.Entry.key = f | None -> true)
  in
  let dirty = Hashtbl.fold (fun _ e acc -> if wanted e then e :: acc else acc) t.table [] in
  (* Write in address order: what a real flush daemon's sorted queue
     would do, and deterministic for tests. *)
  let dirty =
    List.sort (fun (a : Entry.t) b -> Block.compare a.Entry.key b.Entry.key) dirty
  in
  let written = ref 0 in
  List.iter
    (fun (e0 : Entry.t) ->
      (* Re-check against the block's current entry: a concurrent
         eviction may have flushed it already, or the frame may have
         been recycled for a fresh copy of the same block. *)
      match Hashtbl.find_opt t.table e0.Entry.key with
      | Some e when e.Entry.dirty ->
        Entry.pin e;
        e.Entry.dirty <- false;
        t.writebacks <- t.writebacks + 1;
        incr written;
        emit t (Event.Writeback e.Entry.key);
        (match t.obs with
        | None -> ()
        | Some sink ->
          Obs.Sink.emit sink (Obs.Trace.Writeback { block = oblk e.Entry.key }));
        Fun.protect
          ~finally:(fun () -> Entry.unpin e)
          (fun () -> t.backend.Backend.write_block (Block.pack e.Entry.key))
      | Some _ | None -> ())
    dirty;
  !written

(* Clean and return the contiguous dirty run following [key]: blocks
   key+1, key+2, ... of the same file that are resident, dirty and
   unpinned, at most [max_blocks - 1] of them. The caller is about to
   write [key] to the device and commits to writing these in the same
   request (clustered write-back), so their dirty bits are cleared
   here. *)
let take_dirty_followers t key ~max_blocks =
  let rec go i acc =
    if i >= max_blocks then List.rev acc
    else
      let next = Block.make ~file:(Block.file key) ~index:(Block.index key + i) in
      match Hashtbl.find_opt t.table next with
      | Some e when e.Entry.dirty && not (Entry.is_pinned e) ->
        e.Entry.dirty <- false;
        t.writebacks <- t.writebacks + 1;
        emit t (Event.Writeback next);
        (match t.obs with
        | None -> ()
        | Some sink -> Obs.Sink.emit sink (Obs.Trace.Writeback { block = oblk next }));
        go (i + 1) (next :: acc)
      | Some _ | None -> List.rev acc
  in
  if max_blocks <= 1 then [] else go 1 []

let invalidate_file t ~file =
  let entries =
    Hashtbl.fold
      (fun key e acc -> if Block.file key = file then e :: acc else acc)
      t.table []
  in
  (* Ascending block order: deterministic regardless of table layout. *)
  let entries =
    List.sort (fun (a : Entry.t) b -> Block.compare a.Entry.key b.Entry.key) entries
  in
  let dropped = ref 0 in
  List.iter
    (fun (e : Entry.t) ->
      if
        (match Hashtbl.find_opt t.table e.Entry.key with
        | Some e' -> e' == e
        | None -> false)
        && not (Entry.is_pinned e)
      then begin
        (match t.obs with
        | None -> ()
        | Some sink ->
          Obs.Sink.emit sink
            (Obs.Trace.Evict
               {
                 victim = oblk e.Entry.key;
                 owner = Pid.to_int e.Entry.owner;
                 candidate = oblk e.Entry.key;
                 policy = policy_name t;
                 reason = "invalidate";
               }));
        detach t e;
        incr dropped;
        t.backend.Backend.evicted (Block.pack e.Entry.key)
      end)
    entries;
  !dropped

let contains t key = Hashtbl.mem t.table key

let is_dirty t key =
  match Hashtbl.find_opt t.table key with Some e -> e.Entry.dirty | None -> false

let length t = Hashtbl.length t.table

let capacity t = t.config.Config.capacity_blocks

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let writebacks t = t.writebacks
let overrule_count t = t.overrule_count
let placeholders_created t = t.placeholders_created
let placeholders_used t = t.placeholders_used
let placeholder_count t = Hashtbl.length t.placeholders

let pid_hits t pid = match Hashtbl.find_opt t.per_pid pid with Some s -> s.p_hits | None -> 0

let pid_misses t pid =
  match Hashtbl.find_opt t.per_pid pid with Some s -> s.p_misses | None -> 0

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0;
  t.overrule_count <- 0;
  t.placeholders_created <- 0;
  t.placeholders_used <- 0;
  Hashtbl.reset t.per_pid

let lru_keys t = List.map (fun (e : Entry.t) -> e.Entry.key) (Dll.to_list t.global)

let check_invariants t =
  if Hashtbl.length t.table > t.config.Config.capacity_blocks then
    failwith "Buf_ref: over capacity";
  if Dll.length t.global <> Hashtbl.length t.table then
    failwith "Buf_ref: global list / table size mismatch";
  Dll.iter
    (fun (e : Entry.t) ->
      (match Hashtbl.find_opt t.table e.Entry.key with
      | Some e' when e' == e -> ()
      | Some _ | None -> failwith "Buf_ref: global-list entry not in table");
      match e.Entry.global_node with
      | Some node when Dll.contains t.global node && Dll.value node == e -> ()
      | Some _ | None -> failwith "Buf_ref: bad global node back-pointer")
    t.global;
  Hashtbl.iter
    (fun key ph ->
      (match Hashtbl.find_opt t.table ph.target.Entry.key with
      | Some e when e == ph.target -> ()
      | Some _ | None -> failwith "Buf_ref: placeholder target not resident");
      if not (Entry.has_incoming ph.target key) then
        failwith "Buf_ref: placeholder missing from target's incoming list")
    t.placeholders;
  Acm_ref.check_invariants t.acm
