type level = { prio : int; mutable policy : Policy.t; list : Entry.t Dll.t }

type chooser = candidate:Block.t -> resident:Block.t list -> Block.t option

type manager = {
  pid : Pid.t;
  levels : (int, level) Hashtbl.t;
  mutable sorted_levels : level list;  (* ascending priority *)
  mutable n_levels : int;  (* cached |levels| = |sorted_levels|, kept on insert *)
  file_prio : (Block.file, int) Hashtbl.t;  (* only non-zero priorities stored *)
  blocks : (Block.t, Entry.t) Hashtbl.t;  (* every entry this manager holds *)
  mutable chooser : chooser option;  (* upcall replacement handler *)
  mutable decisions : int;
  mutable overrules : int;
  mutable mistakes : int;
  mutable revoked : bool;
}

module Obs = Acfc_obs

type t = {
  config : Config.t;
  managers : (Pid.t, manager) Hashtbl.t;
  mutable tracer : (Event.t -> unit) option;
  mutable obs : Obs.Sink.t option;
}

let create config =
  { config; managers = Hashtbl.create 16; tracer = None; obs = None }

let set_tracer t tracer = t.tracer <- tracer

let set_obs t obs = t.obs <- obs

let emit t ev = match t.tracer with Some f -> f ev | None -> ()

(* One [fbehavior] control call, for the trace. *)
let obs_call t pid op detail =
  match t.obs with
  | None -> ()
  | Some sink ->
    Obs.Sink.emit sink (Obs.Trace.Syscall { pid = Pid.to_int pid; op; detail = detail () })

let find_manager t pid = Hashtbl.find_opt t.managers pid

(* Create the level record for [prio] if missing, respecting the
   per-manager level limit. *)
let ensure_level t mgr prio =
  match Hashtbl.find_opt mgr.levels prio with
  | Some lvl -> Ok lvl
  | None ->
    if mgr.n_levels >= t.config.Config.max_levels then Error Error.Too_many_levels
    else begin
      let lvl = { prio; policy = Policy.default; list = Dll.create () } in
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

(* Link [e] into [lvl] at the MRU (recency) end: used for blocks that
   enter because they were just loaded or referenced. *)
let link_recent mgr lvl (e : Entry.t) =
  e.Entry.level_node <- Some (Dll.push_front lvl.list e);
  e.Entry.level <- lvl.prio;
  e.Entry.managed_by <- Some mgr.pid;
  Hashtbl.replace mgr.blocks e.Entry.key e

(* Link [e] into [lvl] at the end that causes it to be replaced later
   (paper Sec. 4): the MRU end under LRU, the LRU end under MRU. Used
   for blocks moved by [set_priority] / [set_temppri]. *)
let link_replaced_later mgr lvl (e : Entry.t) =
  let node =
    match lvl.policy with
    | Policy.Lru -> Dll.push_front lvl.list e
    | Policy.Mru -> Dll.push_back lvl.list e
  in
  e.Entry.level_node <- Some node;
  e.Entry.level <- lvl.prio;
  e.Entry.managed_by <- Some mgr.pid;
  Hashtbl.replace mgr.blocks e.Entry.key e

let unlink mgr (e : Entry.t) =
  (match (e.Entry.level_node, Hashtbl.find_opt mgr.levels e.Entry.level) with
  | Some node, Some lvl -> Dll.remove lvl.list node
  | Some _, None -> invalid_arg "Acm_ref: entry linked to a missing level"
  | None, _ -> ());
  e.Entry.level_node <- None;
  e.Entry.managed_by <- None;
  e.Entry.temp <- false;
  Hashtbl.remove mgr.blocks e.Entry.key

let register t pid =
  if Hashtbl.mem t.managers pid then Error Error.Already_registered
  else if Hashtbl.length t.managers >= t.config.Config.max_managers then
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
        decisions = 0;
        overrules = 0;
        mistakes = 0;
        revoked = false;
      }
    in
    (* Level 0 always exists: it is the default long-term priority. *)
    (match ensure_level t mgr 0 with Ok _ -> () | Error _ -> assert false);
    Hashtbl.replace t.managers pid mgr;
    obs_call t pid "register" (fun () -> "");
    Ok ()
  end

let unregister t pid =
  match find_manager t pid with
  | None -> ()
  | Some mgr ->
    let entries = Hashtbl.fold (fun _ e acc -> e :: acc) mgr.blocks [] in
    List.iter
      (fun e ->
        unlink mgr e;
        e.Entry.level <- 0)
      entries;
    Hashtbl.remove t.managers pid;
    obs_call t pid "unregister" (fun () -> "")

let is_registered t pid = Hashtbl.mem t.managers pid

let consults t pid =
  match find_manager t pid with Some mgr -> not mgr.revoked | None -> false

let manager_count t = Hashtbl.length t.managers

let new_block t ~pid ~prefetched (e : Entry.t) =
  e.Entry.owner <- pid;
  match find_manager t pid with
  | None -> ()
  | Some mgr ->
    let prio = long_term_prio mgr (Block.file e.Entry.key) in
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
    if prefetched then link_replaced_later mgr lvl e else link_recent mgr lvl e

let block_gone t (e : Entry.t) =
  match e.Entry.managed_by with
  | None -> ()
  | Some pid ->
    (match find_manager t pid with
    | Some mgr -> unlink mgr e
    | None -> invalid_arg "Acm_ref.block_gone: entry managed by unknown manager")

let block_accessed t ~pid (e : Entry.t) =
  e.Entry.owner <- pid;
  (* Under the Sticky shared-file discipline, a block already held by a
     live manager stays with it: only its recency is updated. *)
  let sticky_holder =
    match (t.config.Config.shared_files, e.Entry.managed_by) with
    | Config.Sticky, Some current -> find_manager t current
    | (Config.Transfer | Config.Sticky), _ -> None
  in
  let target =
    match sticky_holder with Some m -> Some m | None -> find_manager t pid
  in
  (* Unlink if currently held by a different manager (ownership moved
     between processes). *)
  (match e.Entry.managed_by with
  | Some current when (match target with Some m -> not (Pid.equal m.pid current) | None -> true)
    -> (match find_manager t current with
       | Some mgr -> unlink mgr e
       | None -> invalid_arg "Acm_ref.block_accessed: stale manager link")
  | Some _ | None -> ());
  match target with
  | None -> ()
  | Some mgr ->
    let lt_prio = long_term_prio mgr (Block.file e.Entry.key) in
    (match e.Entry.level_node with
    | None ->
      (* Newly transferred to this manager. *)
      let lvl = match Hashtbl.find_opt mgr.levels lt_prio with Some l -> l | None -> assert false in
      link_recent mgr lvl e
    | Some node ->
      if e.Entry.temp then begin
        (* A reference ends the temporary priority (paper Sec. 3). *)
        (match Hashtbl.find_opt mgr.levels e.Entry.level with
        | Some lvl -> Dll.remove lvl.list node
        | None -> assert false);
        e.Entry.temp <- false;
        let lvl = match Hashtbl.find_opt mgr.levels lt_prio with Some l -> l | None -> assert false in
        e.Entry.level_node <- Some (Dll.push_front lvl.list e);
        e.Entry.level <- lvl.prio
      end
      else begin
        match Hashtbl.find_opt mgr.levels e.Entry.level with
        | Some lvl -> Dll.move_front lvl.list node
        | None -> assert false
      end)

(* Pick the victim the manager prefers: lowest-priority non-empty level,
   scanning from the end its policy replaces first and skipping pinned
   blocks. Not-yet-referenced read-ahead blocks are passed over while a
   referenced block exists anywhere (they are about to be used); they
   are remembered as a fallback. *)
let manager_choice mgr =
  let fallback = ref None in
  let rec scan_level = function
    | [] -> !fallback
    | lvl :: rest ->
      let start, step =
        match lvl.policy with
        | Policy.Lru -> (Dll.back lvl.list, Dll.next_toward_front)
        | Policy.Mru -> (Dll.front lvl.list, Dll.next_toward_back)
      in
      let rec walk = function
        | None -> scan_level rest
        | Some node ->
          let e = Dll.value node in
          if Entry.is_pinned e then walk (step node)
          else if not e.Entry.referenced then begin
            if Option.is_none !fallback then fallback := Some e;
            walk (step node)
          end
          else Some e
      in
      walk start
  in
  scan_level mgr.sorted_levels

let entry_manager t (e : Entry.t) =
  match e.Entry.managed_by with None -> None | Some pid -> find_manager t pid

(* Consult an upcall handler: materialise the manager's resident set
   (this is the generality-vs-overhead trade the paper discusses), call
   the handler, and validate its answer — an unknown or pinned block
   falls back to the kernel's candidate, like an uncooperative manager. *)
let upcall_choice mgr chooser ~candidate =
  let resident =
    List.sort Block.compare (Hashtbl.fold (fun key _ acc -> key :: acc) mgr.blocks [])
  in
  match chooser ~candidate:candidate.Entry.key ~resident with
  | None -> None
  | Some key ->
    (match Hashtbl.find_opt mgr.blocks key with
    | Some e when not (Entry.is_pinned e) -> Some e
    | Some _ | None -> None)

let replace_block t ~candidate ~missing:_ =
  match entry_manager t candidate with
  | None -> candidate
  | Some mgr ->
    if mgr.revoked then candidate
    else begin
      mgr.decisions <- mgr.decisions + 1;
      let choice =
        match mgr.chooser with
        | Some chooser ->
          (match upcall_choice mgr chooser ~candidate with
          | Some e -> Some e
          | None -> manager_choice mgr)
        | None -> manager_choice mgr
      in
      match choice with
      | None -> candidate
      | Some chosen ->
        if chosen != candidate then mgr.overrules <- mgr.overrules + 1;
        chosen
    end

let placeholder_used t ~chooser ~missing:_ ~target:_ =
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
        emit t (Event.Manager_revoked chooser);
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
              (* Move cached, non-temporary blocks of this file now, in
                 ascending index order. *)
              let moving =
                Hashtbl.fold
                  (fun key (e : Entry.t) acc ->
                    if Block.file key = file && not e.Entry.temp && e.Entry.level <> prio
                    then e :: acc
                    else acc)
                  mgr.blocks []
              in
              List.iter
                (fun (e : Entry.t) ->
                  (match (e.Entry.level_node, Hashtbl.find_opt mgr.levels e.Entry.level) with
                  | Some node, Some l -> Dll.remove l.list node
                  | _ -> assert false);
                  link_replaced_later mgr lvl e)
                (List.sort (fun (a : Entry.t) b -> Block.compare a.Entry.key b.Entry.key) moving)
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
          let lt = long_term_prio mgr file in
          for index = first to last do
            match Hashtbl.find_opt mgr.blocks (Block.make ~file ~index) with
            | None -> ()  (* only blocks presently in the cache are affected *)
            | Some e ->
              if e.Entry.level <> prio then begin
                (match (e.Entry.level_node, Hashtbl.find_opt mgr.levels e.Entry.level) with
                | Some node, Some l -> Dll.remove l.list node
                | _ -> assert false);
                link_replaced_later mgr lvl e
              end;
              e.Entry.temp <- prio <> lt
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

(* {2 Statistics} *)

let stat t pid f = match find_manager t pid with Some mgr -> f mgr | None -> 0

let decisions t pid = stat t pid (fun m -> m.decisions)

let overrules t pid = stat t pid (fun m -> m.overrules)

let mistakes t pid = stat t pid (fun m -> m.mistakes)

let revoked t pid = match find_manager t pid with Some m -> m.revoked | None -> false

(* {2 Testing support} *)

let check_invariants t =
  Hashtbl.iter
    (fun pid mgr ->
      if not (Pid.equal pid mgr.pid) then failwith "Acm_ref: manager key/pid mismatch";
      (* sorted_levels and the cached count mirror the level table. *)
      if mgr.n_levels <> Hashtbl.length mgr.levels then
        failwith "Acm_ref: cached level count out of sync";
      let n_sorted =
        List.fold_left (fun n _ -> n + 1) 0 mgr.sorted_levels
      in
      if n_sorted <> mgr.n_levels then failwith "Acm_ref: sorted_levels out of sync";
      let rec ascending = function
        | a :: (b :: _ as rest) ->
          if a.prio >= b.prio then failwith "Acm_ref: sorted_levels not ascending";
          ascending rest
        | [ _ ] | [] -> ()
      in
      ascending mgr.sorted_levels;
      (* Every list member is indexed, consistent, and counted once. *)
      let counted = ref 0 in
      List.iter
        (fun lvl ->
          Dll.iter
            (fun (e : Entry.t) ->
              incr counted;
              if e.Entry.level <> lvl.prio then failwith "Acm_ref: entry level mismatch";
              (match e.Entry.managed_by with
              | Some p when Pid.equal p pid -> ()
              | Some _ | None -> failwith "Acm_ref: entry managed_by mismatch");
              (match e.Entry.level_node with
              | Some node when Dll.contains lvl.list node -> ()
              | Some _ | None -> failwith "Acm_ref: entry level_node mismatch");
              match Hashtbl.find_opt mgr.blocks e.Entry.key with
              | Some e' when e' == e -> ()
              | Some _ | None -> failwith "Acm_ref: entry missing from manager index")
            lvl.list)
        mgr.sorted_levels;
      if !counted <> Hashtbl.length mgr.blocks then
        failwith "Acm_ref: manager index size mismatch")
    t.managers

let level_blocks t pid ~prio =
  match find_manager t pid with
  | None -> []
  | Some mgr ->
    (match Hashtbl.find_opt mgr.levels prio with
    | None -> []
    | Some lvl -> List.map (fun (e : Entry.t) -> e.Entry.key) (Dll.to_list lvl.list))
