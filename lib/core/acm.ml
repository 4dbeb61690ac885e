(* Columnar ACM: level lists are intrusive {!Ilist}s over the shared
   {!Ctab} columns, managers live in a pid-indexed array, and the
   per-access notifications ([new_block] / [block_accessed] /
   [block_gone]) touch only int columns on the steady-state path. The
   record-based predecessor survives verbatim as {!Acm_ref} and the
   lockstep replay in [Lockstep] / `bench check` proves the two
   trace-identical.

   Order-sensitive state keeps its exact predecessor representation:
   [mgr.blocks] stays a stdlib [Hashtbl] (now mapping to slots) because
   [set_priority] and the upcall resident set observably iterate it,
   and stdlib bucket order depends only on the keys and the
   insert/remove sequence — both unchanged. *)

type level = { prio : int; mutable policy : Policy.t; list : Ilist.t }

type chooser = candidate:Block.t -> resident:Block.t list -> Block.t option

(* An event-driven decision plug-in (the live half of the unified
   policy core, see {!Acfc_policy}): plain callbacks so this module
   does not depend on the policy library. The kernel streams every
   membership change of the manager's block set to the plug-in and asks
   it for victims before the priority-pool decision. *)
type plugin = {
  on_admit : Block.t -> unit;
  on_reference : Block.t -> unit;
  on_remove : Block.t -> invalidated:bool -> unit;
  choose : missing:Block.t -> Block.t option;
}

type manager = {
  pid : Pid.t;
  levels : (int, level) Hashtbl.t;
  mutable sorted_levels : level list;  (* ascending priority *)
  mutable n_levels : int;  (* cached |levels| = |sorted_levels|, kept on insert *)
  file_prio : (Block.file, int) Hashtbl.t;  (* only non-zero priorities stored *)
  blocks : (Block.t, int) Hashtbl.t;  (* every slot this manager holds *)
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
  mutable managers : manager option array;  (* index = pid *)
  mutable n_managers : int;
  mutable tracer : (Event.t -> unit) option;
  mutable obs : Obs.Sink.t option;
}

let create config ~tab =
  { config; tab; managers = Array.make 16 None; n_managers = 0; tracer = None; obs = None }

let set_tracer t tracer = t.tracer <- tracer

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

(* Create the level record for [prio] if missing, respecting the
   per-manager level limit. *)
let ensure_level t mgr prio =
  match Hashtbl.find_opt mgr.levels prio with
  | Some lvl -> Ok lvl
  | None ->
    if mgr.n_levels >= t.config.Config.max_levels then Error Error.Too_many_levels
    else begin
      let lvl = { prio; policy = Policy.default; list = Ilist.create () } in
      Hashtbl.replace mgr.levels prio lvl;
      let rec insert = function
        | [] -> [ lvl ]
        | l :: rest as all -> if l.prio > prio then lvl :: all else l :: insert rest
      in
      mgr.sorted_levels <- insert mgr.sorted_levels;
      (* Levels are never removed; a removal path must decrement this. *)
      mgr.n_levels <- mgr.n_levels + 1;
      Ok lvl
    end

let long_term_prio mgr file = Option.value (Hashtbl.find_opt mgr.file_prio file) ~default:0

(* Link slot [s] into [lvl] at the MRU (recency) end: used for blocks
   that enter because they were just loaded or referenced. *)
let link_recent t mgr lvl s =
  let tab = t.tab in
  Ilist.push_front tab.Ctab.lvl lvl.list s;
  tab.Ctab.level.(s) <- lvl.prio;
  tab.Ctab.managed.(s) <- Pid.to_int mgr.pid;
  Hashtbl.replace mgr.blocks (Ctab.block tab s) s

(* Link [s] into [lvl] at the end that causes it to be replaced later
   (paper Sec. 4): the MRU end under LRU, the LRU end under MRU. Used
   for blocks moved by [set_priority] / [set_temppri]. *)
let link_replaced_later t mgr lvl s =
  let tab = t.tab in
  (match lvl.policy with
  | Policy.Lru -> Ilist.push_front tab.Ctab.lvl lvl.list s
  | Policy.Mru -> Ilist.push_back tab.Ctab.lvl lvl.list s);
  tab.Ctab.level.(s) <- lvl.prio;
  tab.Ctab.managed.(s) <- Pid.to_int mgr.pid;
  Hashtbl.replace mgr.blocks (Ctab.block tab s) s

let unlink t mgr s =
  let tab = t.tab in
  if tab.Ctab.managed.(s) >= 0 then begin
    match Hashtbl.find_opt mgr.levels tab.Ctab.level.(s) with
    | Some lvl -> Ilist.remove tab.Ctab.lvl lvl.list s
    | None -> invalid_arg "Acm: entry linked to a missing level"
  end;
  tab.Ctab.managed.(s) <- -1;
  tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.temp_bit;
  Hashtbl.remove mgr.blocks (Ctab.block tab s)

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
        levels = Hashtbl.create 8;
        sorted_levels = [];
        n_levels = 0;
        file_prio = Hashtbl.create 8;
        blocks = Hashtbl.create 256;
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
    let slots = Hashtbl.fold (fun _ s acc -> s :: acc) mgr.blocks [] in
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

(* Plug-in notifications. Materialising the [Block.t] costs an
   allocation, so every call is guarded by the plug-in's presence. *)
let notify_admit t mgr s =
  match mgr.plugin with
  | Some p -> p.on_admit (Ctab.block t.tab s)
  | None -> ()

let notify_reference t mgr s =
  match mgr.plugin with
  | Some p -> p.on_reference (Ctab.block t.tab s)
  | None -> ()

let notify_remove t mgr s ~invalidated =
  match mgr.plugin with
  | Some p -> p.on_remove (Ctab.block t.tab s) ~invalidated
  | None -> ()

let new_block t ~pid ~prefetched s =
  let tab = t.tab in
  tab.Ctab.owner.(s) <- Pid.to_int pid;
  match find_manager t pid with
  | None -> ()
  | Some mgr ->
    let prio = long_term_prio mgr tab.Ctab.file.(s) in
    let lvl =
      match Hashtbl.find_opt mgr.levels prio with
      | Some lvl -> lvl
      | None ->
        (* [set_priority] creates levels eagerly, so a missing level can
           only mean the file still has default priority 0. *)
        assert false
    in
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
    let lt_prio = long_term_prio mgr tab.Ctab.file.(s) in
    if tab.Ctab.managed.(s) < 0 then begin
      (* Newly transferred to this manager. *)
      let lvl = match Hashtbl.find_opt mgr.levels lt_prio with Some l -> l | None -> assert false in
      link_recent t mgr lvl s;
      notify_admit t mgr s
    end
    else if tab.Ctab.flags.(s) land Ctab.temp_bit <> 0 then begin
      (* A reference ends the temporary priority (paper Sec. 3). *)
      (match Hashtbl.find_opt mgr.levels tab.Ctab.level.(s) with
      | Some lvl -> Ilist.remove tab.Ctab.lvl lvl.list s
      | None -> assert false);
      tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.temp_bit;
      let lvl = match Hashtbl.find_opt mgr.levels lt_prio with Some l -> l | None -> assert false in
      Ilist.push_front tab.Ctab.lvl lvl.list s;
      tab.Ctab.level.(s) <- lvl.prio;
      notify_reference t mgr s
    end
    else begin
      (match Hashtbl.find_opt mgr.levels tab.Ctab.level.(s) with
      | Some lvl -> Ilist.move_front tab.Ctab.lvl lvl.list s
      | None -> assert false);
      notify_reference t mgr s
    end

(* Pick the victim the manager prefers: lowest-priority non-empty level,
   scanning from the end its policy replaces first and skipping pinned
   blocks. Not-yet-referenced read-ahead blocks are passed over while a
   referenced block exists anywhere (they are about to be used); they
   are remembered as a fallback. Slots throughout; [-1] = none. *)
let manager_choice t mgr =
  let tab = t.tab in
  let fallback = ref (-1) in
  let rec scan_level = function
    | [] -> !fallback
    | lvl :: rest ->
      let start, step =
        match lvl.policy with
        | Policy.Lru -> (Ilist.back lvl.list, Ilist.next_toward_front)
        | Policy.Mru -> (Ilist.front lvl.list, Ilist.next_toward_back)
      in
      let rec walk s =
        if s < 0 then scan_level rest
        else if tab.Ctab.pinned.(s) > 0 then walk (step tab.Ctab.lvl s)
        else if tab.Ctab.flags.(s) land Ctab.referenced_bit = 0 then begin
          if !fallback < 0 then fallback := s;
          walk (step tab.Ctab.lvl s)
        end
        else s
      in
      walk start
  in
  scan_level mgr.sorted_levels

let slot_manager t s =
  let m = t.tab.Ctab.managed.(s) in
  if m < 0 then None else find_manager t (Pid.make m)

(* Consult an upcall handler: materialise the manager's resident set
   (this is the generality-vs-overhead trade the paper discusses), call
   the handler, and validate its answer — an unknown or pinned block
   falls back to the kernel's candidate, like an uncooperative manager. *)
let upcall_choice t mgr chooser ~candidate =
  let resident = Hashtbl.fold (fun key _ acc -> key :: acc) mgr.blocks [] in
  match chooser ~candidate:(Ctab.block t.tab candidate) ~resident with
  | None -> -1
  | Some key ->
    (match Hashtbl.find_opt mgr.blocks key with
    | Some s when t.tab.Ctab.pinned.(s) = 0 -> s
    | Some _ | None -> -1)

(* Consult the event-driven plug-in. Cheaper than the upcall path — no
   resident list is materialised — and validated the same way: an
   unknown or pinned answer falls back to the next decision source. *)
let plugin_choice t mgr plugin ~missing =
  match plugin.choose ~missing with
  | None -> -1
  | Some key ->
    (match Hashtbl.find_opt mgr.blocks key with
    | Some s when t.tab.Ctab.pinned.(s) = 0 -> s
    | Some _ | None -> -1)

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
        (match t.tracer with
        | Some f -> f (Event.Manager_revoked chooser)
        | None -> ());
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
        let old = long_term_prio mgr file in
        let need_record = prio <> 0 && not (Hashtbl.mem mgr.file_prio file) in
        if need_record && Hashtbl.length mgr.file_prio >= t.config.Config.max_file_records
        then Error Error.Too_many_file_records
        else
          match ensure_level t mgr prio with
          | Error _ as e -> e
          | Ok lvl ->
            if prio = 0 then Hashtbl.remove mgr.file_prio file
            else Hashtbl.replace mgr.file_prio file prio;
            if old <> prio then begin
              let tab = t.tab in
              (* Move cached, non-temporary blocks of this file now. *)
              Hashtbl.iter
                (fun key s ->
                  if
                    Block.file key = file
                    && tab.Ctab.flags.(s) land Ctab.temp_bit = 0
                    && tab.Ctab.level.(s) <> prio
                  then begin
                    (match Hashtbl.find_opt mgr.levels tab.Ctab.level.(s) with
                    | Some l -> Ilist.remove tab.Ctab.lvl l.list s
                    | None -> assert false);
                    link_replaced_later t mgr lvl s
                  end)
                mgr.blocks
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
      match Hashtbl.find_opt mgr.levels prio with
      | Some lvl -> Ok lvl.policy
      | None -> Ok Policy.default)

let set_temppri t pid ~file ~first ~last ~prio =
  obs_call t pid "set_temppri" (fun () ->
      Printf.sprintf "file=%d first=%d last=%d prio=%d" file first last prio);
  with_manager t pid (fun mgr ->
      if mgr.revoked then Error Error.Revoked
      else if first < 0 || last < first then Error Error.Invalid_range
      else
        match ensure_level t mgr prio with
        | Error _ as e -> e
        | Ok lvl ->
          let tab = t.tab in
          let lt = long_term_prio mgr file in
          for index = first to last do
            match Hashtbl.find_opt mgr.blocks (Block.make ~file ~index) with
            | None -> ()  (* only blocks presently in the cache are affected *)
            | Some s ->
              if tab.Ctab.level.(s) <> prio then begin
                (match Hashtbl.find_opt mgr.levels tab.Ctab.level.(s) with
                | Some l -> Ilist.remove tab.Ctab.lvl l.list s
                | None -> assert false);
                link_replaced_later t mgr lvl s
              end;
              if prio <> lt then
                tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) lor Ctab.temp_bit
              else tab.Ctab.flags.(s) <- tab.Ctab.flags.(s) land lnot Ctab.temp_bit
          done;
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
                  p.on_admit (Ctab.block t.tab s);
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

(* {2 Testing support} *)

let check_invariants t =
  let tab = t.tab in
  Array.iteri
    (fun i mgro ->
      match mgro with
      | None -> ()
      | Some mgr ->
        if Pid.to_int mgr.pid <> i then failwith "Acm: manager key/pid mismatch";
        (* sorted_levels and the cached count mirror the level table. *)
        if mgr.n_levels <> Hashtbl.length mgr.levels then
          failwith "Acm: cached level count out of sync";
        let n_sorted =
          List.fold_left (fun n _ -> n + 1) 0 mgr.sorted_levels
        in
        if n_sorted <> mgr.n_levels then failwith "Acm: sorted_levels out of sync";
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
                match Hashtbl.find_opt mgr.blocks (Ctab.block tab s) with
                | Some s' when s' = s -> ()
                | Some _ | None -> failwith "Acm: entry missing from manager index")
              tab.Ctab.lvl lvl.list)
          mgr.sorted_levels;
        if !counted <> Hashtbl.length mgr.blocks then
          failwith "Acm: manager index size mismatch")
    t.managers

let level_blocks t pid ~prio =
  match find_manager t pid with
  | None -> []
  | Some mgr ->
    (match Hashtbl.find_opt mgr.levels prio with
    | None -> []
    | Some lvl ->
      List.map (fun s -> Ctab.block t.tab s) (Ilist.to_list t.tab.Ctab.lvl lvl.list))
