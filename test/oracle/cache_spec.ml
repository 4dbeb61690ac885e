(* An executable specification of the kernel cache: BUF and ACM as the
   paper (Sec. 3-4) and DESIGN.md §4 state them, over plain lists and
   one lookup table, for {!Refine} to hold the columnar
   {!Acfc_core.Cache} to. It has the facade's operations and
   observations, under the same names, and emits the
   {!Acfc_obs.Trace.t} records the columnar cache sends its obs sink,
   in the same order: the trace users read is part of what it states.

   Nothing here is fast: every rule walks, copies or sorts a list where
   that is the plainest statement. The spec leaves out what no check
   compares: the device (every fetch lands at once, so nothing is ever
   pinned and [Cache_busy] cannot arise), gauges and per-pid
   counters. *)

open Acfc_core
module Trace = Acfc_obs.Trace

type chooser = candidate:Block.t -> resident:Block.t list -> Block.t option

(* A resident block. [holder] is the manager whose set holds it, at
   priority [level], temporary when [temp]. *)
type frame = {
  mutable owner : Pid.t;  (* the last process to reference it *)
  mutable dirty : bool;
  mutable referenced : bool;  (* false only for read-ahead not yet used *)
  mutable clock : bool;  (* CLOCK's second-chance bit *)
  mutable holder : Pid.t option;
  mutable level : int;
  mutable temp : bool;
}

(* One priority level of a manager: its blocks, MRU end first, and the
   policy that says which end is replaced first. *)
type level = { prio : int; mutable policy : Policy.t; mutable blocks : Block.t list }

type manager = {
  pid : Pid.t;
  mutable levels : level list;  (* ascending priority; level 0 always *)
  mutable files : (Block.file * int) list;  (* non-zero long-term priorities *)
  mutable upcall : chooser option;
  mutable decisions : int;
  mutable overrules : int;
  mutable mistakes : int;
  mutable revoked : bool;
}

type t = {
  config : Config.t;
  frames : (Block.t, frame) Hashtbl.t;  (* the one lookup table *)
  mutable order : Block.t list;  (* the global order, MRU end first *)
  mutable managers : manager list;
  mutable placeholders : (Block.t * Block.t * Pid.t) list;
      (* (replaced, target, chooser), at most one per replaced block *)
  queued : Block.t Queue.t;  (* replaced blocks in creation order *)
  mutable observer : (Trace.t -> unit) option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable overrule_count : int;
  mutable created : int;
  mutable used : int;
}

let create config =
  {
    config;
    frames = Hashtbl.create 64;
    order = [];
    managers = [];
    placeholders = [];
    queued = Queue.create ();
    observer = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    overrule_count = 0;
    created = 0;
    used = 0;
  }

let set_observer t observer = t.observer <- observer

let emit t ev = Option.iter (fun f -> f ev) t.observer

(* A block and a pid as trace records carry them. *)
let tb k = { Trace.file = k.Block.file; index = k.Block.index }

let tp = Pid.to_int

(* An [fbehavior] call, traced with the columnar ACM's detail string. *)
let call t pid op detail = emit t (Trace.Syscall { pid = tp pid; op; detail })

let without key = List.filter (fun k -> not (Block.equal k key))

let frame t key = Hashtbl.find t.frames key

let manager t pid = List.find_opt (fun m -> Pid.equal m.pid pid) t.managers

let level m prio = List.find_opt (fun l -> l.prio = prio) m.levels

let long_term_prio m file = Option.value (List.assoc_opt file m.files) ~default:0

let long_term_level m file = Option.get (level m (long_term_prio m file))

(* {2 A manager's set} *)

(* The set in its stated order: ascending by [Block.compare], so by
   file and then by index. *)
let members m = List.sort Block.compare (List.concat_map (fun l -> l.blocks) m.levels)

let unlink t key f =
  Option.iter
    (fun pid ->
      let l = Option.get (level (Option.get (manager t pid)) f.level) in
      l.blocks <- without key l.blocks)
    f.holder;
  f.holder <- None

(* Put [key] in [m]'s level [l]: at the MRU end when [recent] (it was
   just loaded or referenced), else at the end [l]'s policy replaces
   later (a priority call moved it, or it is unused read-ahead). *)
let link t m l key f ~recent =
  unlink t key f;
  l.blocks <- (if recent || l.policy = Policy.Lru then key :: l.blocks else l.blocks @ [ key ]);
  f.holder <- Some m.pid;
  f.level <- l.prio

(* Leaving a set ends a temporary priority. *)
let leave t key f =
  unlink t key f;
  f.temp <- false

(* {2 Placeholders} *)

(* Remove and return the placeholder for [key]. *)
let take_placeholder t key =
  let mine, rest = List.partition (fun (r, _, _) -> Block.equal r key) t.placeholders in
  t.placeholders <- rest;
  List.nth_opt mine 0

(* A placeholder for [replaced], evicted by [chooser]'s overrule,
   pointing at the [target] the kernel wanted to evict. Over budget,
   the oldest queued key is popped and whatever placeholder that key
   has now is dropped, which may be a newer one than the pushed key
   was queued for. *)
let add_placeholder t ~replaced ~target ~chooser =
  if t.config.Config.max_placeholders > 0 then begin
    while List.length t.placeholders >= t.config.Config.max_placeholders do
      ignore (take_placeholder t (Queue.pop t.queued))
    done;
    t.placeholders <- (replaced, target, chooser) :: t.placeholders;
    Queue.push replaced t.queued;
    t.created <- t.created + 1;
    emit t
      (Trace.Placeholder_created
         { replaced = tb replaced; target = tb target; chooser = tp chooser })
  end

(* A placeholder fired: [pid]'s overrule was a mistake. Past
   [min_decisions] overrules, a manager whose mistakes reach
   [mistake_ratio] of them is revoked: never consulted again, and its
   control calls fail. A revoked manager keeps its set. *)
let mistake t pid =
  Option.iter
    (fun m ->
      m.mistakes <- m.mistakes + 1;
      match t.config.Config.revocation with
      | Some r
        when (not m.revoked)
             && m.overrules >= r.Config.min_decisions
             && float_of_int m.mistakes >= r.Config.mistake_ratio *. float_of_int m.overrules
        ->
        m.revoked <- true;
        emit t (Trace.Manager_revoked { pid = tp pid })
      | Some _ | None -> ())
    (manager t pid)

(* {2 Replacement} *)

(* The first referenced block of [keys]. Unused read-ahead is passed
   over unless nothing else is left; then the first one passed over is
   taken. *)
let first_referenced t keys =
  match List.find_opt (fun k -> (frame t k).referenced) keys with
  | Some k -> Some k
  | None -> List.nth_opt keys 0

(* CLOCK's hand starts at the old end and rotates each block it passes
   over to the MRU end: unused read-ahead (the first is the fallback)
   and blocks whose second-chance bit it clears. It stops at a
   referenced block without the bit, or after two turns. *)
let clock_candidate t =
  let rec sweep budget fallback rotated = function
    | [] -> sweep budget fallback [] (List.rev rotated)
    | key :: rest as unswept ->
      let f = frame t key in
      if budget = 0 || (f.referenced && not f.clock) then begin
        t.order <- rotated @ List.rev unswept;
        if budget = 0 then Option.get fallback else key
      end
      else begin
        f.clock <- false;
        let fallback = if f.referenced || Option.is_some fallback then fallback else Some key in
        sweep (budget - 1) fallback (key :: rotated) rest
      end
  in
  sweep (2 * List.length t.order) None [] (List.rev t.order)

let kernel_candidate t =
  match t.config.Config.alloc_policy with
  | Config.Clock_sp -> clock_candidate t
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    Option.get (first_referenced t (List.rev t.order))

(* The manager's own choice: its lowest non-empty level, from the end
   that level's policy replaces first. *)
let manager_choice t m =
  first_referenced t
    (List.concat_map
       (fun l -> match l.policy with Policy.Lru -> List.rev l.blocks | Policy.Mru -> l.blocks)
       m.levels)

(* The candidate's manager, unless revoked, names the block to give up.
   Its upcall chooser, given the candidate and its set, answers first;
   an answer counts only if it names a member. *)
let consult t candidate =
  match Option.bind (frame t candidate).holder (manager t) with
  | None -> candidate
  | Some m when m.revoked -> candidate
  | Some m ->
    m.decisions <- m.decisions + 1;
    let member b =
      match Hashtbl.find_opt t.frames b with Some f -> f.holder = Some m.pid | None -> false
    in
    let choice =
      match Option.bind m.upcall (fun choose -> choose ~candidate ~resident:(members m)) with
      | Some b when member b -> Some b
      | Some _ | None -> manager_choice t m
    in
    (match choice with
    | None -> candidate
    | Some chosen ->
      if not (Block.equal chosen candidate) then m.overrules <- m.overrules + 1;
      chosen)

(* The block leaves the cache, and the placeholders pointing at it
   with it. *)
let drop t key =
  leave t key (frame t key);
  Hashtbl.remove t.frames key;
  t.order <- without key t.order;
  t.placeholders <-
    List.filter (fun (_, target, _) -> not (Block.equal target key)) t.placeholders

(* Evict one block so [missing] can come in. The missing block's
   placeholder, if any, makes its target the candidate and charges its
   chooser a mistake. Only [Global_lru] never consults; an overrule
   swaps the two blocks' global positions under LRU-S, LRU-SP and
   CLOCK-SP (traced as a swap that keeps the candidate), and leaves a
   placeholder under LRU-SP and CLOCK-SP. The eviction is traced with
   the allocation policy's name and the reason "capacity". *)
let evict t ~missing placeholder =
  let candidate =
    match placeholder with
    | Some (_, target, chooser) ->
      t.used <- t.used + 1;
      emit t
        (Trace.Placeholder_hit
           { missing = tb missing; target = tb target; chooser = tp chooser });
      mistake t chooser;
      target
    | None -> kernel_candidate t
  in
  let policy = t.config.Config.alloc_policy in
  let chosen = if policy = Config.Global_lru then candidate else consult t candidate in
  if not (Block.equal chosen candidate) then begin
    t.overrule_count <- t.overrule_count + 1;
    if policy <> Config.Alloc_lru then begin
      t.order <-
        List.map
          (fun k ->
            if Block.equal k candidate then chosen
            else if Block.equal k chosen then candidate
            else k)
          t.order;
      emit t (Trace.Swap { kept = tb candidate; victim = tb chosen })
    end;
    if policy = Config.Lru_sp || policy = Config.Clock_sp then
      add_placeholder t ~replaced:chosen ~target:candidate
        ~chooser:(Option.get (frame t chosen).holder)
  end;
  let f = frame t chosen in
  emit t
    (Trace.Evict
       {
         victim = tb chosen;
         owner = tp f.owner;
         candidate = tb candidate;
         policy = Config.alloc_policy_to_string policy;
         reason = "capacity";
       });
  drop t chosen;
  t.evictions <- t.evictions + 1;
  if f.dirty then begin
    t.writebacks <- t.writebacks + 1;
    emit t (Trace.Writeback { block = tb chosen })
  end

(* A miss installs the block at the MRU end of the global order and, if
   [pid] has a manager, in the level of the file's long-term priority.
   A load first takes the missing block's placeholder: with a free
   frame it is dropped unused. *)
let load t ~pid key ~dirty ~prefetch =
  let placeholder = take_placeholder t key in
  if Hashtbl.length t.frames >= t.config.Config.capacity_blocks then
    evict t ~missing:key placeholder;
  let f =
    {
      owner = pid;
      dirty;
      referenced = not prefetch;
      clock = false;
      holder = None;
      level = 0;
      temp = false;
    }
  in
  Hashtbl.replace t.frames key f;
  t.order <- key :: t.order;
  Option.iter
    (fun m -> link t m (long_term_level m key.Block.file) key f ~recent:(not prefetch))
    (manager t pid)

(* A hit moves the block to the MRU end of the global order (under
   CLOCK it only sets the second-chance bit). Under [Sticky] the
   manager holding it keeps it; otherwise it goes to the referencing
   process's manager, or to none. Its manager moves it to the MRU end
   of its level, and a reference ends a temporary priority. *)
let reference t ~pid key f =
  f.referenced <- true;
  (match t.config.Config.alloc_policy with
  | Config.Clock_sp -> f.clock <- true
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    t.order <- key :: without key t.order);
  f.owner <- pid;
  let keeper =
    match (t.config.Config.shared_files, f.holder) with
    | Config.Sticky, Some holder -> manager t holder
    | (Config.Sticky | Config.Transfer), _ -> manager t pid
  in
  match keeper with
  | None -> leave t key f
  | Some m ->
    if f.holder <> Some m.pid then leave t key f;
    let l =
      if f.holder = None || f.temp then long_term_level m key.Block.file
      else Option.get (level m f.level)
    in
    f.temp <- false;
    link t m l key f ~recent:true

(* {2 Data path} *)

let access t ~pid key ~dirty ~prefetch =
  match Hashtbl.find_opt t.frames key with
  | Some f ->
    t.hits <- t.hits + 1;
    emit t (Trace.Cache_hit { pid = tp pid; block = tb key });
    if dirty then f.dirty <- true;
    reference t ~pid key f;
    `Hit
  | None ->
    t.misses <- t.misses + 1;
    emit t (Trace.Cache_miss { pid = tp pid; block = tb key; prefetch });
    load t ~pid key ~dirty ~prefetch;
    `Miss

let read ?(prefetch = false) t ~pid key = access t ~pid key ~dirty:false ~prefetch

let write t ~pid key ~fetch:_ = access t ~pid key ~dirty:true ~prefetch:false

(* Write back every dirty block (of [file]), in ascending key order. *)
let sync t ?file () =
  let wanted k f = f.dirty && Option.fold ~none:true ~some:(( = ) k.Block.file) file in
  let dirty = Hashtbl.fold (fun k f acc -> if wanted k f then k :: acc else acc) t.frames [] in
  List.iter
    (fun k ->
      (frame t k).dirty <- false;
      t.writebacks <- t.writebacks + 1;
      emit t (Trace.Writeback { block = tb k }))
    (List.sort Block.compare dirty);
  List.length dirty

(* Drop every block of a deleted file, dirty ones unwritten, in
   ascending key order. Each is traced as an eviction that is its own
   candidate, for the reason "invalidate". *)
let invalidate_file t ~file =
  let gone = List.sort Block.compare (List.filter (fun k -> k.Block.file = file) t.order) in
  List.iter
    (fun k ->
      emit t
        (Trace.Evict
           {
             victim = tb k;
             owner = tp (frame t k).owner;
             candidate = tb k;
             policy = Config.alloc_policy_to_string t.config.Config.alloc_policy;
             reason = "invalidate";
           });
      drop t k)
    gone;
  List.length gone

(* {2 Control path}

   Each call is traced as a syscall: [register_manager] only when it
   succeeds, [unregister_manager] only for a registered pid, and the
   setters before any check, so a refused call is traced too. *)

let register_manager t pid =
  if Option.is_some (manager t pid) then Error Error.Already_registered
  else if List.length t.managers >= t.config.Config.max_managers then
    Error Error.Too_many_managers
  else begin
    t.managers <-
      {
        pid;
        levels = [ { prio = 0; policy = Policy.Lru; blocks = [] } ];
        files = [];
        upcall = None;
        decisions = 0;
        overrules = 0;
        mistakes = 0;
        revoked = false;
      }
      :: t.managers;
    call t pid "register" "";
    Ok ()
  end

(* Its blocks stay in the cache, held by no manager. *)
let unregister_manager t pid =
  Option.iter
    (fun m ->
      List.iter (fun k -> leave t k (frame t k)) (members m);
      t.managers <- List.filter (fun m' -> m' != m) t.managers;
      call t pid "unregister" "")
    (manager t pid)

(* A control call: by a registered manager, not revoked. *)
let control t pid f =
  match manager t pid with
  | None -> Error Error.Not_registered
  | Some m when m.revoked -> Error Error.Revoked
  | Some m -> f m

(* A level is made on first use, up to [max_levels], replacing LRU
   first. Levels are never removed. *)
let ensure_level t m prio =
  match level m prio with
  | Some l -> Ok l
  | None when List.length m.levels >= t.config.Config.max_levels -> Error Error.Too_many_levels
  | None ->
    let l = { prio; policy = Policy.Lru; blocks = [] } in
    m.levels <- List.sort (fun a b -> Int.compare a.prio b.prio) (l :: m.levels);
    Ok l

(* The file's resident blocks at no temporary priority move to the new
   level now, in the set's order, each to the end replaced later. *)
let set_priority t pid ~file ~prio =
  call t pid "set_priority" (Printf.sprintf "file=%d prio=%d" file prio);
  control t pid (fun m ->
      if
        prio <> 0
        && (not (List.mem_assoc file m.files))
        && List.length m.files >= t.config.Config.max_file_records
      then Error Error.Too_many_file_records
      else
        Result.map
          (fun l ->
            let others = List.remove_assoc file m.files in
            m.files <- (if prio = 0 then others else (file, prio) :: others);
            List.iter
              (fun k ->
                let f = frame t k in
                if k.Block.file = file && (not f.temp) && f.level <> prio then
                  link t m l k f ~recent:false)
              (members m))
          (ensure_level t m prio))

let set_policy t pid ~prio policy =
  call t pid "set_policy" (Printf.sprintf "prio=%d policy=%s" prio (Policy.to_string policy));
  control t pid (fun m -> Result.map (fun l -> l.policy <- policy) (ensure_level t m prio))

(* The resident blocks of [file] in [first..last] move to level [prio]
   in the set's order, each to the end replaced later, and stay there
   until their next reference or replacement. *)
let set_temppri t pid ~file ~first ~last ~prio =
  call t pid "set_temppri"
    (Printf.sprintf "file=%d first=%d last=%d prio=%d" file first last prio);
  control t pid (fun m ->
      if first < 0 || last < first then Error Error.Invalid_range
      else
        Result.map
          (fun l ->
            let lt = long_term_prio m file in
            List.iter
              (fun k ->
                let f = frame t k in
                let i = k.Block.index in
                if k.Block.file = file && first <= i && i <= last then begin
                  if f.level <> prio then link t m l k f ~recent:false;
                  f.temp <- prio <> lt
                end)
              (members m))
          (ensure_level t m prio))

let set_chooser t pid chooser =
  call t pid "set_chooser" (if Option.is_some chooser then "install" else "remove");
  control t pid (fun m ->
      m.upcall <- chooser;
      Ok ())

(* {2 Observation} *)

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let writebacks t = t.writebacks
let overrule_count t = t.overrule_count
let placeholders_created t = t.created
let placeholders_used t = t.used
let placeholder_count t = List.length t.placeholders
let length t = Hashtbl.length t.frames
let lru_keys t = t.order

let level_blocks t pid ~prio =
  match Option.bind (manager t pid) (fun m -> level m prio) with Some l -> l.blocks | None -> []

let stat f t pid = Option.fold ~none:0 ~some:f (manager t pid)
let manager_decisions = stat (fun m -> m.decisions)
let manager_overrules = stat (fun m -> m.overrules)
let manager_mistakes = stat (fun m -> m.mistakes)
let manager_revoked t pid = Option.fold ~none:false ~some:(fun m -> m.revoked) (manager t pid)

(* {2 Well-formedness}

   One predicate over the whole state, which {!Refine} checks wherever
   it compares the two caches' abstractions. *)

let valid t =
  let c = t.config in
  let resident k = Hashtbl.mem t.frames k in
  let distinct l = List.length (List.sort_uniq Block.compare l) = List.length l in
  let queued k = Queue.fold (fun seen q -> seen || Block.equal q k) false t.queued in
  let well_formed m =
    let prios = List.map (fun l -> l.prio) m.levels in
    let held =
      Hashtbl.fold (fun _ f n -> if f.holder = Some m.pid then n + 1 else n) t.frames 0
    in
    List.mem 0 prios
    && List.length prios <= c.Config.max_levels
    && List.sort_uniq Int.compare prios = prios
    && List.length m.files <= c.Config.max_file_records
    && List.for_all (fun (_, p) -> p <> 0 && List.mem p prios) m.files
    && List.for_all
         (fun l ->
           List.for_all
             (fun k ->
               match Hashtbl.find_opt t.frames k with
               | Some f -> f.holder = Some m.pid && f.level = l.prio
               | None -> false)
             l.blocks)
         m.levels
    && distinct (members m)
    && List.length (members m) = held
  in
  (* A held block at no temporary priority sits at its file's
     long-term level. *)
  let frame_ok k f =
    (match f.holder with
    | None -> not f.temp
    | Some pid -> (
      match manager t pid with
      | Some m -> f.temp || f.level = long_term_prio m k.Block.file
      | None -> false))
    && (f.referenced || not f.clock)
    && (c.Config.alloc_policy = Config.Clock_sp || not f.clock)
  in
  Hashtbl.length t.frames <= c.Config.capacity_blocks
  && List.length t.order = Hashtbl.length t.frames
  && distinct t.order
  && List.for_all resident t.order
  && List.length t.managers <= c.Config.max_managers
  && List.length (List.sort_uniq Pid.compare (List.map (fun m -> m.pid) t.managers))
     = List.length t.managers
  && List.for_all well_formed t.managers
  && Hashtbl.fold (fun k f ok -> ok && frame_ok k f) t.frames true
  && List.length t.placeholders <= c.Config.max_placeholders
  && distinct (List.map (fun (r, _, _) -> r) t.placeholders)
  && List.for_all
       (fun (r, target, _) -> (not (resident r)) && resident target && queued r)
       t.placeholders
