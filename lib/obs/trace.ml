type block = { file : int; index : int }

type t =
  | Cache_hit of { pid : int; block : block }
  | Cache_miss of { pid : int; block : block; prefetch : bool }
  | Evict of {
      victim : block;
      owner : int;
      candidate : block;
      policy : string;
      reason : string;
    }
  | Writeback of { block : block }
  | Swap of { kept : block; victim : block }
  | Placeholder_created of { replaced : block; target : block; chooser : int }
  | Placeholder_hit of { missing : block; target : block; chooser : int }
  | Manager_revoked of { pid : int }
  | Disk_io of {
      disk : string;
      kind : string;
      addr : int;
      blocks : int;
      seek : float;
      rot : float;
      xfer : float;
      wait : float;
    }
  | Syscall of { pid : int; op : string; detail : string }
  | Fiber of { name : string; op : string }

type record = { time : float; ev : t }

let kind = function
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Evict _ -> "evict"
  | Writeback _ -> "writeback"
  | Swap _ -> "swap"
  | Placeholder_created _ -> "placeholder_created"
  | Placeholder_hit _ -> "placeholder_hit"
  | Manager_revoked _ -> "manager_revoked"
  | Disk_io _ -> "disk_io"
  | Syscall _ -> "syscall"
  | Fiber _ -> "fiber"

let pid = function
  | Cache_hit { pid; _ } | Cache_miss { pid; _ } | Manager_revoked { pid }
  | Syscall { pid; _ } ->
    Some pid
  | Evict { owner; _ } -> Some owner
  | Placeholder_created { chooser; _ } | Placeholder_hit { chooser; _ } -> Some chooser
  | Writeback _ | Swap _ | Disk_io _ | Fiber _ -> None

(* {2 JSON} *)

let codec =
  let open Codec in
  let block prefix =
    obj (fun file index -> { file; index })
    |> req (prefix ^ "file") (fun b -> b.file) int
    |> req (prefix ^ "index") (fun b -> b.index) int
  in
  let placeholder tag first proj ctor =
    case tag proj
      (obj ctor
      |> flat (fun (b, _, _) -> b) (block first)
      |> flat (fun (_, t, _) -> t) (block "target_")
      |> req "chooser" (fun (_, _, c) -> c) int)
  in
  let event =
    variant ~tag:"ev" ~what:"event"
      [
        case "cache_hit"
          (function Cache_hit { pid; block } -> Some (pid, block) | _ -> None)
          (obj (fun pid block -> Cache_hit { pid; block })
          |> req "pid" fst int |> flat snd (block ""));
        case "cache_miss"
          (function
            | Cache_miss { pid; block; prefetch } -> Some (pid, block, prefetch) | _ -> None)
          (obj (fun pid block prefetch -> Cache_miss { pid; block; prefetch })
          |> req "pid" (fun (p, _, _) -> p) int
          |> flat (fun (_, b, _) -> b) (block "")
          |> req "prefetch" (fun (_, _, f) -> f) bool);
        case "evict"
          (function
            | Evict { victim; owner; candidate; policy; reason } ->
              Some (victim, owner, candidate, policy, reason)
            | _ -> None)
          (obj (fun victim owner candidate policy reason ->
               Evict { victim; owner; candidate; policy; reason })
          |> flat (fun (v, _, _, _, _) -> v) (block "victim_")
          |> req "owner" (fun (_, o, _, _, _) -> o) int
          |> flat (fun (_, _, c, _, _) -> c) (block "cand_")
          |> req "policy" (fun (_, _, _, p, _) -> p) string
          |> req "reason" (fun (_, _, _, _, r) -> r) string);
        case "writeback"
          (function Writeback { block } -> Some block | _ -> None)
          (obj (fun block -> Writeback { block }) |> flat Fun.id (block ""));
        case "swap"
          (function Swap { kept; victim } -> Some (kept, victim) | _ -> None)
          (obj (fun kept victim -> Swap { kept; victim })
          |> flat fst (block "kept_") |> flat snd (block "victim_"));
        placeholder "placeholder_created" "replaced_"
          (function
            | Placeholder_created { replaced; target; chooser } ->
              Some (replaced, target, chooser)
            | _ -> None)
          (fun replaced target chooser -> Placeholder_created { replaced; target; chooser });
        placeholder "placeholder_hit" "missing_"
          (function
            | Placeholder_hit { missing; target; chooser } -> Some (missing, target, chooser)
            | _ -> None)
          (fun missing target chooser -> Placeholder_hit { missing; target; chooser });
        case "manager_revoked"
          (function Manager_revoked { pid } -> Some pid | _ -> None)
          (obj (fun pid -> Manager_revoked { pid }) |> req "pid" Fun.id int);
        case "disk_io"
          (function
            | Disk_io { disk; kind; addr; blocks; seek; rot; xfer; wait } ->
              Some ((disk, kind, addr, blocks), (seek, rot, xfer, wait))
            | _ -> None)
          (obj (fun disk kind addr blocks seek rot xfer wait ->
               Disk_io { disk; kind; addr; blocks; seek; rot; xfer; wait })
          |> req "disk" (fun ((d, _, _, _), _) -> d) string
          |> req "kind" (fun ((_, k, _, _), _) -> k) string
          |> req "addr" (fun ((_, _, a, _), _) -> a) int
          |> req "blocks" (fun ((_, _, _, b), _) -> b) int
          |> req "seek" (fun (_, (s, _, _, _)) -> s) float
          |> req "rot" (fun (_, (_, r, _, _)) -> r) float
          |> req "xfer" (fun (_, (_, _, x, _)) -> x) float
          |> req "wait" (fun (_, (_, _, _, w)) -> w) float);
        case "syscall"
          (function Syscall { pid; op; detail } -> Some (pid, op, detail) | _ -> None)
          (obj (fun pid op detail -> Syscall { pid; op; detail })
          |> req "pid" (fun (p, _, _) -> p) int
          |> req "op" (fun (_, o, _) -> o) string
          |> req "detail" (fun (_, _, d) -> d) string);
        case "fiber"
          (function Fiber { name; op } -> Some (name, op) | _ -> None)
          (obj (fun name op -> Fiber { name; op })
          |> req "name" fst string |> req "op" snd string);
      ]
  in
  seal
    (obj (fun time ev -> { time; ev })
    |> req "t" (fun r -> r.time) float
    |> flat (fun r -> r.ev) event)

let to_json r = Codec.encode codec r

let of_json j = Codec.decode ~label:"trace record" codec j

(* {2 CSV} *)

let csv_header =
  "time,event,pid,file,index,aux_file,aux_index,owner,policy,reason,prefetch,disk,kind,addr,blocks,seek,rot,xfer,wait,op,name,detail"

type cells = {
  mutable pid_c : string;
  mutable file_c : string;
  mutable index_c : string;
  mutable aux_file : string;
  mutable aux_index : string;
  mutable owner_c : string;
  mutable policy_c : string;
  mutable reason_c : string;
  mutable prefetch_c : string;
  mutable disk_c : string;
  mutable kind_c : string;
  mutable addr_c : string;
  mutable blocks_c : string;
  mutable seek_c : string;
  mutable rot_c : string;
  mutable xfer_c : string;
  mutable wait_c : string;
  mutable op_c : string;
  mutable name_c : string;
  mutable detail_c : string;
}

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let fnum x = Json.to_string (Json.Num x)

let to_csv { time; ev } =
  let c =
    {
      pid_c = ""; file_c = ""; index_c = ""; aux_file = ""; aux_index = "";
      owner_c = ""; policy_c = ""; reason_c = ""; prefetch_c = ""; disk_c = "";
      kind_c = ""; addr_c = ""; blocks_c = ""; seek_c = ""; rot_c = "";
      xfer_c = ""; wait_c = ""; op_c = ""; name_c = ""; detail_c = "";
    }
  in
  let main b = c.file_c <- string_of_int b.file; c.index_c <- string_of_int b.index in
  let aux b = c.aux_file <- string_of_int b.file; c.aux_index <- string_of_int b.index in
  (match ev with
  | Cache_hit { pid; block } -> c.pid_c <- string_of_int pid; main block
  | Cache_miss { pid; block; prefetch } ->
    c.pid_c <- string_of_int pid;
    main block;
    c.prefetch_c <- string_of_bool prefetch
  | Evict { victim; owner; candidate; policy; reason } ->
    main victim;
    aux candidate;
    c.owner_c <- string_of_int owner;
    c.policy_c <- policy;
    c.reason_c <- reason
  | Writeback { block } -> main block
  | Swap { kept; victim } -> main kept; aux victim
  | Placeholder_created { replaced; target; chooser } ->
    main replaced; aux target; c.pid_c <- string_of_int chooser
  | Placeholder_hit { missing; target; chooser } ->
    main missing; aux target; c.pid_c <- string_of_int chooser
  | Manager_revoked { pid } -> c.pid_c <- string_of_int pid
  | Disk_io { disk; kind; addr; blocks; seek; rot; xfer; wait } ->
    c.disk_c <- disk;
    c.kind_c <- kind;
    c.addr_c <- string_of_int addr;
    c.blocks_c <- string_of_int blocks;
    c.seek_c <- fnum seek;
    c.rot_c <- fnum rot;
    c.xfer_c <- fnum xfer;
    c.wait_c <- fnum wait
  | Syscall { pid; op; detail } ->
    c.pid_c <- string_of_int pid;
    c.op_c <- op;
    c.detail_c <- csv_escape detail
  | Fiber { name; op } -> c.name_c <- csv_escape name; c.op_c <- op);
  String.concat ","
    [
      fnum time; kind ev; c.pid_c; c.file_c; c.index_c; c.aux_file; c.aux_index;
      c.owner_c; c.policy_c; c.reason_c; c.prefetch_c; c.disk_c; c.kind_c;
      c.addr_c; c.blocks_c; c.seek_c; c.rot_c; c.xfer_c; c.wait_c; c.op_c;
      c.name_c; c.detail_c;
    ]

let pp ppf r = Json.pp ppf (to_json r)
