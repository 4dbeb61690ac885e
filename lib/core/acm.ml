(* Columnar ACM: level lists are intrusive {!Ilist}s over the shared
   {!Ctab} columns, managers live in a pid-indexed array, and the
   per-access notifications ([new_block] / [block_accessed] /
   [block_gone]) touch only int columns on the steady-state path. The
   test-only executable spec (test/oracle/cache_spec.ml) states the
   same rules over plain lists, and refinement replays in `bench check`
   and the tests hold this module to it.

   No per-access lookup hashes polymorphically or allocates. A manager
   has few levels, so a level is found by priority with a scan of its
   ascending [sorted_levels]; a file's long-term level is an {!Itbl}
   lookup from the file id to the level's index in [levels].

   A manager's block set is no table of its own. Membership is the
   [Ctab.managed] column, a lookup by key goes through BUF's block
   table (shared by {!Cache.create}), and linking or unlinking a block
   touches only int columns. The set's order is observable, though:
   [set_priority] relinks resident blocks in it, a wide [set_temppri]
   range moves them in it, and the upcall chooser receives it as the
   resident set. The paper orders none of these, so the order is
   stated: ascending packed key, by file and then by index. It depends
   on the set alone, and [sorted_members] computes it when a cold path
   asks. *)

type level = { prio : int; idx : int; mutable policy : Policy.t; list : Ilist.t }

type chooser = candidate:Block.t -> resident:Block.t list -> Block.t option

(* An event-driven decision plug-in (the live half of the unified
   policy core, see {!Acfc_policy}): plain callbacks so this module
   does not depend on the policy library. The kernel streams every
   membership change of the manager's block set to the plug-in and asks
   it for victims before the priority-pool decision. *)
type plugin = {
  on_admit : int -> unit;
  on_reference : int -> unit;
  on_remove : int -> invalidated:bool -> unit;
  choose : missing:int -> int;
}

type manager = {
  pid : Pid.t;
  mutable levels : level array;  (* [idx] -> level; [levels.(0)] is priority 0 *)
  mutable sorted_levels : level list;  (* ascending priority *)
  mutable n_levels : int;  (* levels created = |sorted_levels|; never removed *)
  file_level : Itbl.t;  (* file -> [idx] of a non-zero long-term priority *)
  mutable members : int;  (* slots whose [Ctab.managed] is [pid] *)
  mutable chooser : chooser option;  (* upcall replacement handler *)
  mutable plugin : plugin option;  (* event-driven decision plug-in *)
  mutable decisions : int;
  mutable overrules : int;
  mutable mistakes : int;
  mutable revoked : bool;
}

module Obs = Acfc_obs

type t = {
  config : Config.t;
  tab : Ctab.t;
  table : Itbl.t;  (* BUF's block table: packed id -> resident slot *)
  mutable managers : manager option array;  (* index = pid *)
  mutable n_managers : int;
  mutable obs : Obs.Sink.t option;
}

let create config ~tab ~table =
  {
    config;
    tab;
    table;
    managers = Array.make 16 None;
    n_managers = 0;
    obs = None;
  }

let set_obs t obs = t.obs <- obs

(* One [fbehavior] control call, for the trace. *)
let obs_call t pid op detail =
  match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink (Obs.Trace.Syscall { pid = Pid.to_int pid; op; detail = detail () })

(* Allocation-free: returns the stored [Some mgr] or [None]. *)
let find_manager t pid =
  let i = Pid.to_int pid in
  if i < Array.length t.managers then t.managers.(i) else None

(* The answer of [find_level] for a priority with no level. *)
let no_level = { prio = 0; idx = -1; policy = Policy.default; list = Ilist.create () }

let rec scan_levels prio = function
  | [] -> no_level
  | l :: rest -> if l.prio = prio then l else if l.prio > prio then no_level else scan_levels prio rest

let find_level mgr prio = scan_levels prio mgr.sorted_levels

(* The level a slot's [Ctab.level] names; it exists while the slot is
   linked. *)
let level_of t mgr s =
  let lvl = find_level mgr t.tab.Ctab.level.(s) in
  if lvl == no_level then invalid_arg "Acm: entry linked to a missing level";
  lvl

(* Create the level record for [prio] if missing, respecting the
   per-manager level limit. *)
let ensure_level t mgr prio =
  let lvl = find_level mgr prio in
  if lvl != no_level then Ok lvl
  else if mgr.n_levels >= t.config.Config.max_levels then Error Error.Too_many_levels
  else begin
    let lvl = { prio; idx = mgr.n_levels; policy = Policy.default; list = Ilist.create () } in
    if lvl.idx = Array.length mgr.levels then begin
      let grown = Array.make (2 * lvl.idx) lvl in
      Array.blit mgr.levels 0 grown 0 lvl.idx;
      mgr.levels <- grown
    end;
    mgr.levels.(lvl.idx) <- lvl;
    let rec insert = function
      | [] -> [ lvl ]
      | l :: rest as all -> if l.prio > prio then lvl :: all else l :: insert rest
    in
    mgr.sorted_levels <- insert mgr.sorted_levels;
    (* Levels are never removed; a removal path must renumber [idx]. *)
    mgr.n_levels <- mgr.n_levels + 1;
    Ok lvl
  end

(* The level of [file]'s long-term priority. Negative file ids name no
   block, so they never carry a record. *)
let long_term_level mgr file =
  let i = if file < 0 then -1 else Itbl.find mgr.file_level file in
  mgr.levels.(if i < 0 then 0 else i)

let long_term_prio mgr file = (long_term_level mgr file).prio

(* Enter slot [s] into [mgr]'s set; a slot already in it stays. *)
let join t mgr s =
  let tab = t.tab in
  let p = Pid.to_int mgr.pid in
  if tab.Ctab.managed.(s) <> p then begin
    tab.Ctab.managed.(s) <- p;
    mgr.members <- mgr.members + 1
  end

(* Link slot [s] into [lvl] at the MRU (recency) end: used for blocks
   that enter because they were just loaded or referenced. *)
let link_recent t mgr lvl s =
  let tab = t.tab in
  Ilist.push_front tab.Ctab.lvl lvl.list s;
  tab.Ctab.level.(s) <- lvl.prio;
  join t mgr s

(* Link [s] into [lvl] at the end that causes it to be replaced later
   (paper Sec. 4): the MRU end under LRU, the LRU end under MRU. Used
   for blocks moved by [set_priority] / [set_temppri]. *)
let link_replaced_later t mgr lvl s =
  let tab = t.tab in
  (match lvl.policy with
  | Policy.Lru -> Ilist.push_front tab.Ctab.lvl lvl.list s
  | Policy.Mru -> Ilist.push_back tab.Ctab.lvl lvl.list s);
  tab.Ctab.level.(s) <- lvl.prio;
  join t mgr s

let unlink t mgr s =
  let tab = t.tab in
  if tab.Ctab.managed.(s) >= 0 then begin
    Ilist.remove tab.Ctab.lvl (level_of t mgr s).list s;
    mgr.members <- mgr.members - 1
  end;
  tab.Ctab.managed.(s) <- -1;
  tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.temp_bit

(* The slot of packed key [key] in [mgr]'s set, or [-1]. *)
let member_slot t mgr key =
  let s = if key < 0 then -1 else Itbl.find t.table key in
  if s >= 0 && t.tab.Ctab.managed.(s) = Pid.to_int mgr.pid then s else -1

(* [mgr]'s members that satisfy [keep], in ascending packed key order:
   by file, then by index. Cold paths only: it walks the whole set. *)
let sorted_members t mgr ~keep =
  let tab = t.tab in
  let found = Array.make mgr.members 0 and n = ref 0 in
  List.iter
    (fun lvl ->
      Ilist.iter
        (fun s ->
          if keep s then begin
            found.(!n) <- s;
            incr n
          end)
        tab.Ctab.lvl lvl.list)
    mgr.sorted_levels;
  let found = Array.sub found 0 !n in
  Array.sort (fun a b -> Int.compare tab.Ctab.key.(a) tab.Ctab.key.(b)) found;
  found

(* The resident set an upcall chooser receives, in ascending order. *)
let resident_blocks t mgr =
  Array.fold_right
    (fun s acc -> Ctab.block t.tab s :: acc)
    (sorted_members t mgr ~keep:(fun _ -> true))
    []

let register t pid =
  let i = Pid.to_int pid in
  if i >= Array.length t.managers then begin
    let n = Array.make (max (i + 1) (2 * Array.length t.managers)) None in
    Array.blit t.managers 0 n 0 (Array.length t.managers);
    t.managers <- n
  end;
  if Option.is_some t.managers.(i) then Error Error.Already_registered
  else if t.n_managers >= t.config.Config.max_managers then
    Error Error.Too_many_managers
  else begin
    let mgr =
      {
        pid;
        levels = [| no_level; no_level |];
        sorted_levels = [];
        n_levels = 0;
        file_level = Itbl.create 8;
        members = 0;
        chooser = None;
        plugin = None;
        decisions = 0;
        overrules = 0;
        mistakes = 0;
        revoked = false;
      }
    in
    (* Level 0 always exists: it is the default long-term priority. *)
    (match ensure_level t mgr 0 with Ok _ -> () | Error _ -> assert false);
    t.managers.(i) <- Some mgr;
    t.n_managers <- t.n_managers + 1;
    obs_call t pid "register" (fun () -> "");
    Ok ()
  end

let unregister t pid =
  match find_manager t pid with
  | None -> ()
  | Some mgr ->
    (* Every member is unlinked and reset alike, so their order is
       unobservable. *)
    let slots =
      List.concat_map (fun lvl -> Ilist.to_list t.tab.Ctab.lvl lvl.list) mgr.sorted_levels
    in
    List.iter
      (fun s ->
        unlink t mgr s;
        t.tab.Ctab.level.(s) <- 0)
      slots;
    t.managers.(Pid.to_int pid) <- None;
    t.n_managers <- t.n_managers - 1;
    obs_call t pid "unregister" (fun () -> "")

let is_registered t pid = Option.is_some (find_manager t pid)

let consults t pid =
  match find_manager t pid with Some mgr -> not mgr.revoked | None -> false

let manager_count t = t.n_managers

(* Plug-in notifications, by packed key. *)
let notify_admit t mgr s =
  match mgr.plugin with
  | Some p -> p.on_admit t.tab.Ctab.key.(s)
  | None -> ()

let notify_reference t mgr s =
  match mgr.plugin with
  | Some p -> p.on_reference t.tab.Ctab.key.(s)
  | None -> ()

let notify_remove t mgr s ~invalidated =
  match mgr.plugin with
  | Some p -> p.on_remove t.tab.Ctab.key.(s) ~invalidated
  | None -> ()

let new_block t ~pid ~prefetched s =
  let tab = t.tab in
  tab.Ctab.owner.(s) <- Pid.to_int pid;
  match find_manager t pid with
  | None -> ()
  | Some mgr ->
    let lvl = long_term_level mgr tab.Ctab.file.(s) in
    (* A demand-fetched block was just used: it takes the MRU position.
       A read-ahead block has not been referenced yet, so it must not
       become an MRU policy's first victim; it enters at the end that is
       replaced later and earns its recency at its first real access. *)
    if prefetched then link_replaced_later t mgr lvl s else link_recent t mgr lvl s;
    notify_admit t mgr s

let block_gone ?(invalidated = false) t s =
  let m = t.tab.Ctab.managed.(s) in
  if m >= 0 then begin
    match find_manager t (Pid.make m) with
    | Some mgr ->
      notify_remove t mgr s ~invalidated;
      unlink t mgr s
    | None -> invalid_arg "Acm.block_gone: entry managed by unknown manager"
  end

let block_accessed t ~pid s =
  let tab = t.tab in
  tab.Ctab.owner.(s) <- Pid.to_int pid;
  let managed = tab.Ctab.managed.(s) in
  (* Under the Sticky shared-file discipline, a block already held by a
     live manager stays with it: only its recency is updated. *)
  let sticky_holder =
    match t.config.Config.shared_files with
    | Config.Sticky when managed >= 0 -> find_manager t (Pid.make managed)
    | Config.Transfer | Config.Sticky -> None
  in
  let target =
    match sticky_holder with Some m -> Some m | None -> find_manager t pid
  in
  (* Unlink if currently held by a different manager (ownership moved
     between processes). *)
  if
    managed >= 0
    && (match target with Some m -> Pid.to_int m.pid <> managed | None -> true)
  then begin
    match find_manager t (Pid.make managed) with
    | Some mgr ->
      (* An ownership transfer is not a replacement decision the losing
         plug-in made, so it must not learn from it (no ghost entry). *)
      notify_remove t mgr s ~invalidated:true;
      unlink t mgr s
    | None -> invalid_arg "Acm.block_accessed: stale manager link"
  end;
  match target with
  | None -> ()
  | Some mgr ->
    if tab.Ctab.managed.(s) < 0 then begin
      (* Newly transferred to this manager. *)
      link_recent t mgr (long_term_level mgr tab.Ctab.file.(s)) s;
      notify_admit t mgr s
    end
    else if tab.Ctab.flags.(s) land Ctab.temp_bit <> 0 then begin
      (* A reference ends the temporary priority (paper Sec. 3). *)
      Ilist.remove tab.Ctab.lvl (level_of t mgr s).list s;
      tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.temp_bit;
      let lvl = long_term_level mgr tab.Ctab.file.(s) in
      Ilist.push_front tab.Ctab.lvl lvl.list s;
      tab.Ctab.level.(s) <- lvl.prio;
      notify_reference t mgr s
    end
    else begin
      Ilist.move_front tab.Ctab.lvl (level_of t mgr s).list s;
      notify_reference t mgr s
    end

(* Pick the victim the manager prefers: lowest-priority non-empty level,
   scanning from the end its policy replaces first and skipping pinned
   blocks. Not-yet-referenced read-ahead blocks are passed over while a
   referenced block exists anywhere (they are about to be used); the
   first one seen is the fallback. Slots throughout; [-1] = none. The
   walk is top-level recursion with no closure, so a choice allocates
   nothing. *)
let rec choose_in tab fallback = function
  | [] -> fallback
  | lvl :: rest ->
    let start = match lvl.policy with Policy.Lru -> Ilist.back lvl.list | Policy.Mru -> Ilist.front lvl.list in
    walk_level tab fallback lvl rest start

and walk_level tab fallback lvl rest s =
  if s < 0 then choose_in tab fallback rest
  else begin
    let next =
      match lvl.policy with
      | Policy.Lru -> Ilist.next_toward_front tab.Ctab.lvl s
      | Policy.Mru -> Ilist.next_toward_back tab.Ctab.lvl s
    in
    if tab.Ctab.pinned.(s) > 0 then walk_level tab fallback lvl rest next
    else if tab.Ctab.flags.(s) land Ctab.referenced_bit = 0 then
      walk_level tab (if fallback < 0 then s else fallback) lvl rest next
    else s
  end

let manager_choice t mgr = choose_in t.tab (-1) mgr.sorted_levels

let slot_manager t s =
  let m = t.tab.Ctab.managed.(s) in
  if m < 0 then None else find_manager t (Pid.make m)

(* The unpinned slot of a manager's answer, the packed key [key], or
   [-1] when that block is not one of its residents or is pinned. *)
let resident_slot t mgr key =
  let s = member_slot t mgr key in
  if s >= 0 && t.tab.Ctab.pinned.(s) = 0 then s else -1

(* Consult an upcall handler: materialise the manager's resident set
   (this is the generality-vs-overhead trade the paper discusses), call
   the handler, and validate its answer — an unknown or pinned block
   falls back to the kernel's candidate, like an uncooperative manager. *)
let upcall_choice t mgr chooser ~candidate =
  match chooser ~candidate:(Ctab.block t.tab candidate) ~resident:(resident_blocks t mgr) with
  | None -> -1
  | Some b -> resident_slot t mgr (Block.pack_ids ~file:b.Block.file ~index:b.Block.index)

(* Consult the event-driven plug-in. Cheaper than the upcall path — no
   resident list is materialised and no record is built — and validated
   the same way: an unknown or pinned answer falls back to the next
   decision source. *)
let plugin_choice t mgr plugin ~missing = resident_slot t mgr (plugin.choose ~missing)

let replace_block t ~candidate ~missing =
  match slot_manager t candidate with
  | None -> candidate
  | Some mgr ->
    if mgr.revoked then candidate
    else begin
      mgr.decisions <- mgr.decisions + 1;
      let choice =
        let from_plugin =
          match mgr.plugin with
          | Some p -> plugin_choice t mgr p ~missing
          | None -> -1
        in
        if from_plugin >= 0 then from_plugin
        else
          match mgr.chooser with
          | Some chooser ->
            let s = upcall_choice t mgr chooser ~candidate in
            if s >= 0 then s else manager_choice t mgr
          | None -> manager_choice t mgr
      in
      if choice < 0 then candidate
      else begin
        if choice <> candidate then mgr.overrules <- mgr.overrules + 1;
        choice
      end
    end

let placeholder_used t ~chooser =
  match find_manager t chooser with
  | None -> ()
  | Some mgr ->
    mgr.mistakes <- mgr.mistakes + 1;
    (match t.config.Config.revocation with
    | Some { min_decisions; mistake_ratio } when not mgr.revoked ->
      if
        mgr.overrules >= min_decisions
        && float_of_int mgr.mistakes >= mistake_ratio *. float_of_int mgr.overrules
      then begin
        mgr.revoked <- true;
        match t.obs with
        | None -> ()
        | Some sink ->
          Obs.Sink.emit sink (Obs.Trace.Manager_revoked { pid = Pid.to_int chooser })
      end
    | Some _ | None -> ())

(* {2 Application interface} *)

let with_manager t pid f =
  match find_manager t pid with None -> Error Error.Not_registered | Some mgr -> f mgr

let set_priority t pid ~file ~prio =
  obs_call t pid "set_priority" (fun () -> Printf.sprintf "file=%d prio=%d" file prio);
  with_manager t pid (fun mgr ->
      if mgr.revoked then Error Error.Revoked
      else begin
        if file < 0 then invalid_arg "Acm.set_priority: negative file id";
        let old = long_term_prio mgr file in
        let need_record = prio <> 0 && not (Itbl.mem mgr.file_level file) in
        if need_record && Itbl.length mgr.file_level >= t.config.Config.max_file_records
        then Error Error.Too_many_file_records
        else
          match ensure_level t mgr prio with
          | Error _ as e -> e
          | Ok lvl ->
            if prio = 0 then Itbl.remove mgr.file_level file
            else Itbl.set mgr.file_level file lvl.idx;
            if old <> prio then begin
              let tab = t.tab in
              (* Move cached, non-temporary blocks of this file now, in
                 ascending index order. A relink moves no other block's
                 level or flags, so choosing them first chooses the same
                 set. *)
              Array.iter
                (fun s ->
                  Ilist.remove tab.Ctab.lvl (level_of t mgr s).list s;
                  link_replaced_later t mgr lvl s)
                (sorted_members t mgr ~keep:(fun s ->
                     tab.Ctab.file.(s) = file
                     && tab.Ctab.flags.(s) land Ctab.temp_bit = 0
                     && tab.Ctab.level.(s) <> prio))
            end;
            Ok ()
      end)

let get_priority t pid ~file = with_manager t pid (fun mgr -> Ok (long_term_prio mgr file))

let set_policy t pid ~prio policy =
  obs_call t pid "set_policy" (fun () ->
      Printf.sprintf "prio=%d policy=%s" prio (Policy.to_string policy));
  with_manager t pid (fun mgr ->
      if mgr.revoked then Error Error.Revoked
      else
        match ensure_level t mgr prio with
        | Error _ as e -> e
        | Ok lvl ->
          lvl.policy <- policy;
          Ok ())

let get_policy t pid ~prio =
  with_manager t pid (fun mgr ->
      Ok (find_level mgr prio).policy)

(* Give member slot [s] the temporary priority [lvl] ([prio]; [lt] is
   its file's long-term priority). *)
let set_temp t mgr lvl ~prio ~lt s =
  let tab = t.tab in
  if tab.Ctab.level.(s) <> prio then begin
    Ilist.remove tab.Ctab.lvl (level_of t mgr s).list s;
    link_replaced_later t mgr lvl s
  end;
  if prio <> lt then tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) lor Ctab.temp_bit
  else tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.temp_bit

let set_temppri t pid ~file ~first ~last ~prio =
  obs_call t pid "set_temppri" (fun () ->
      Printf.sprintf "file=%d first=%d last=%d prio=%d" file first last prio);
  with_manager t pid (fun mgr ->
      if mgr.revoked then Error Error.Revoked
      else if first < 0 || last < first then Error Error.Invalid_range
      else if file < 0 then invalid_arg "Acm.set_temppri: negative file id"
      else
        match ensure_level t mgr prio with
        | Error _ as e -> e
        | Ok lvl ->
          let lt = long_term_prio mgr file in
          (* Only blocks presently in the cache are affected, in
             ascending index order. A range of at most as many indices
             as the manager has members is walked index by index, which
             allocates nothing ([done_with] sends one block at a time);
             a wider one, up to 2^32 blocks, visits the members inside
             it instead. *)
          if last - first < mgr.members then
            for index = first to last do
              let s = member_slot t mgr (Block.pack_ids ~file ~index) in
              if s >= 0 then set_temp t mgr lvl ~prio ~lt s
            done
          else begin
            (* A relink keeps a block in the set, so the members found
               before any relink are the ones an index walk meets. *)
            let tab = t.tab in
            Array.iter
              (fun s -> set_temp t mgr lvl ~prio ~lt s)
              (sorted_members t mgr ~keep:(fun s ->
                   let i = tab.Ctab.index.(s) in
                   tab.Ctab.file.(s) = file && first <= i && i <= last))
          end;
          Ok ())

let set_chooser t pid chooser =
  obs_call t pid "set_chooser" (fun () ->
      if Option.is_some chooser then "install" else "remove");
  with_manager t pid (fun mgr ->
      if mgr.revoked then Error Error.Revoked
      else begin
        mgr.chooser <- chooser;
        Ok ()
      end)

let set_plugin t pid plugin =
  obs_call t pid "set_plugin" (fun () ->
      if Option.is_some plugin then "install" else "remove");
  with_manager t pid (fun mgr ->
      if mgr.revoked then Error Error.Revoked
      else begin
        mgr.plugin <- plugin;
        (* A plug-in installed on a manager that already owns blocks
           learns them as admissions, oldest first: level by level,
           each list from its LRU end. *)
        (match plugin with
        | None -> ()
        | Some p ->
          let lvl_links = t.tab.Ctab.lvl in
          List.iter
            (fun lvl ->
              let rec admit s =
                if s <> Ilist.nil then begin
                  p.on_admit t.tab.Ctab.key.(s);
                  admit (Ilist.next_toward_front lvl_links s)
                end
              in
              admit (Ilist.back lvl.list))
            mgr.sorted_levels);
        Ok ()
      end)

(* {2 Statistics} *)

let stat t pid f = match find_manager t pid with Some mgr -> f mgr | None -> 0

let decisions t pid = stat t pid (fun m -> m.decisions)

let overrules t pid = stat t pid (fun m -> m.overrules)

let mistakes t pid = stat t pid (fun m -> m.mistakes)

let revoked t pid = match find_manager t pid with Some m -> m.revoked | None -> false

let members t pid = stat t pid (fun m -> m.members)

(* {2 Testing support} *)

let check_invariants t =
  let tab = t.tab in
  Array.iteri
    (fun i mgro ->
      match mgro with
      | None -> ()
      | Some mgr ->
        if Pid.to_int mgr.pid <> i then failwith "Acm: manager key/pid mismatch";
        (* sorted_levels and the level array hold the same levels. *)
        let n_sorted =
          List.fold_left (fun n _ -> n + 1) 0 mgr.sorted_levels
        in
        if n_sorted <> mgr.n_levels then failwith "Acm: sorted_levels out of sync";
        List.iter
          (fun lvl ->
            if lvl.idx < 0 || lvl.idx >= mgr.n_levels || mgr.levels.(lvl.idx) != lvl then
              failwith "Acm: level array out of sync")
          mgr.sorted_levels;
        let rec ascending = function
          | a :: (b :: _ as rest) ->
            if a.prio >= b.prio then failwith "Acm: sorted_levels not ascending";
            ascending rest
          | [ _ ] | [] -> ()
        in
        ascending mgr.sorted_levels;
        (* Every list member is indexed, consistent, and counted once. *)
        let counted = ref 0 in
        List.iter
          (fun lvl ->
            Ilist.iter
              (fun s ->
                incr counted;
                if Ctab.is_free tab s then failwith "Acm: free slot in level list";
                if tab.Ctab.level.(s) <> lvl.prio then
                  failwith "Acm: entry level mismatch";
                if tab.Ctab.managed.(s) <> i then
                  failwith "Acm: entry managed_by mismatch";
                if Itbl.find t.table tab.Ctab.key.(s) <> s then
                  failwith "Acm: entry missing from the block table")
              tab.Ctab.lvl lvl.list)
          mgr.sorted_levels;
        if !counted <> mgr.members then failwith "Acm: member count mismatch")
    t.managers

let level_blocks t pid ~prio =
  match find_manager t pid with
  | None -> []
  | Some mgr ->
    List.map (fun s -> Ctab.block t.tab s)
      (Ilist.to_list t.tab.Ctab.lvl (find_level mgr prio).list)

let resident t pid =
  match find_manager t pid with None -> [] | Some mgr -> resident_blocks t mgr
