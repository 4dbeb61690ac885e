(* Refinement check: the columnar {!Acfc_core.Cache} against the
   executable spec {!Cache_spec}.

   Both run the same op sequence. After every op, the op's result and
   the {!Acfc_obs.Trace.t} records it emitted must agree: the columnar
   cache's through a [Custom] obs sink, the spec's through its
   observer. At every [deep_every]-th op and at
   the end, the abstraction of both states must agree too: the stats,
   the global order, each level an op touched and the counters of each
   manager ever registered. There the columnar cache's
   [check_invariants] and the spec's [valid] must also hold. A
   [divergence] names the first step at which anything differs.

   `bench check` replays a recorded workload, a wirgen corpus and
   seeded control-path storms, comparing deeply every 512 ops;
   [test_ctab] replays small random op sequences, most of them with a
   deep comparison after every op. *)

open Acfc_core
module Trace = Acfc_obs.Trace
module Sink = Acfc_obs.Sink

(* One cache operation. Control-path ops mirror the [fbehavior]
   interface; [Set_chooser] installs the same (deterministic) closure
   in both. *)
type op =
  | Read of { pid : Pid.t; block : Block.t; prefetch : bool }
  | Write of { pid : Pid.t; block : Block.t; fetch : bool }
  | Sync of Block.file option
  | Invalidate_file of Block.file
  | Register_manager of Pid.t
  | Unregister_manager of Pid.t
  | Set_priority of { pid : Pid.t; file : Block.file; prio : int }
  | Set_policy of { pid : Pid.t; prio : int; policy : Policy.t }
  | Set_temppri of { pid : Pid.t; file : Block.file; first : int; last : int; prio : int }
  | Set_chooser of {
      pid : Pid.t;
      chooser : (candidate:Block.t -> resident:Block.t list -> Block.t option) option;
    }

let pp_op ppf = function
  | Read { pid; block; prefetch } ->
    Format.fprintf ppf "read pid=%a %a%s" Pid.pp pid Block.pp block
      (if prefetch then " (prefetch)" else "")
  | Write { pid; block; fetch } ->
    Format.fprintf ppf "write pid=%a %a%s" Pid.pp pid Block.pp block
      (if fetch then " (fetch)" else "")
  | Sync None -> Format.fprintf ppf "sync"
  | Sync (Some f) -> Format.fprintf ppf "sync file=%d" f
  | Invalidate_file f -> Format.fprintf ppf "invalidate file=%d" f
  | Register_manager pid -> Format.fprintf ppf "register %a" Pid.pp pid
  | Unregister_manager pid -> Format.fprintf ppf "unregister %a" Pid.pp pid
  | Set_priority { pid; file; prio } ->
    Format.fprintf ppf "set_priority pid=%a file=%d prio=%d" Pid.pp pid file prio
  | Set_policy { pid; prio; policy } ->
    Format.fprintf ppf "set_policy pid=%a prio=%d %a" Pid.pp pid prio Policy.pp policy
  | Set_temppri { pid; file; first; last; prio } ->
    Format.fprintf ppf "set_temppri pid=%a file=%d [%d,%d] prio=%d" Pid.pp pid file first last
      prio
  | Set_chooser { pid; chooser } ->
    Format.fprintf ppf "set_chooser pid=%a %s" Pid.pp pid
      (match chooser with Some _ -> "<fun>" | None -> "none")

type divergence = {
  step : int;  (* 0-based index into the op array *)
  op : string;
  what : string;  (* which observation disagreed *)
  columnar : string;
  spec : string;
}

let pp_divergence ppf d =
  Format.fprintf ppf "step %d (%s): %s differ@,  columnar: %s@,  spec:     %s" d.step d.op
    d.what d.columnar d.spec

(* What both caches offer, under the facade's names. *)
module type CACHE = sig
  type t

  val read : ?prefetch:bool -> t -> pid:Pid.t -> Block.t -> [ `Hit | `Miss ]
  val write : t -> pid:Pid.t -> Block.t -> fetch:bool -> [ `Hit | `Miss ]
  val sync : t -> ?file:Block.file -> unit -> int
  val invalidate_file : t -> file:Block.file -> int
  val register_manager : t -> Pid.t -> (unit, Error.t) result
  val unregister_manager : t -> Pid.t -> unit
  val set_priority : t -> Pid.t -> file:Block.file -> prio:int -> (unit, Error.t) result
  val set_policy : t -> Pid.t -> prio:int -> Policy.t -> (unit, Error.t) result

  val set_temppri :
    t -> Pid.t -> file:Block.file -> first:int -> last:int -> prio:int -> (unit, Error.t) result

  val set_chooser :
    t ->
    Pid.t ->
    (candidate:Block.t -> resident:Block.t list -> Block.t option) option ->
    (unit, Error.t) result

  val hits : t -> int
  val misses : t -> int
  val evictions : t -> int
  val writebacks : t -> int
  val overrule_count : t -> int
  val placeholders_created : t -> int
  val placeholders_used : t -> int
  val placeholder_count : t -> int
  val length : t -> int
  val lru_keys : t -> Block.t list
  val level_blocks : t -> Pid.t -> prio:int -> Block.t list
  val manager_decisions : t -> Pid.t -> int
  val manager_overrules : t -> Pid.t -> int
  val manager_mistakes : t -> Pid.t -> int
  val manager_revoked : t -> Pid.t -> bool
end

(* A result or an exception, rendered the same way on both sides. *)
let outcome f =
  match f () with
  | s -> s
  | exception Cache.Cache_busy -> "raise Cache_busy"
  | exception Invalid_argument m -> "raise Invalid_argument " ^ m
  | exception Failure m -> "raise Failure " ^ m

let apply (type c) (module C : CACHE with type t = c) (c : c) op =
  let hm = function `Hit -> "hit" | `Miss -> "miss" in
  let ctl = function Ok () -> "ok" | Error e -> "error " ^ Error.to_string e in
  outcome (fun () ->
      match op with
      | Read { pid; block; prefetch } -> hm (C.read ~prefetch c ~pid block)
      | Write { pid; block; fetch } -> hm (C.write c ~pid block ~fetch)
      | Sync file -> string_of_int (C.sync c ?file ())
      | Invalidate_file file -> string_of_int (C.invalidate_file c ~file)
      | Register_manager pid -> ctl (C.register_manager c pid)
      | Unregister_manager pid ->
        C.unregister_manager c pid;
        "ok"
      | Set_priority { pid; file; prio } -> ctl (C.set_priority c pid ~file ~prio)
      | Set_policy { pid; prio; policy } -> ctl (C.set_policy c pid ~prio policy)
      | Set_temppri { pid; file; first; last; prio } ->
        ctl (C.set_temppri c pid ~file ~first ~last ~prio)
      | Set_chooser { pid; chooser } -> ctl (C.set_chooser c pid chooser))

let blocks bs =
  Format.asprintf "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") Block.pp)
    bs

(* The abstraction function: what a state shows, as named renderings. *)
let abstraction (type c) (module C : CACHE with type t = c) (c : c) ~levels ~pids =
  let n what v = (what, string_of_int v) in
  [
    n "hits" (C.hits c);
    n "misses" (C.misses c);
    n "evictions" (C.evictions c);
    n "writebacks" (C.writebacks c);
    n "overrules" (C.overrule_count c);
    n "placeholders_created" (C.placeholders_created c);
    n "placeholders_used" (C.placeholders_used c);
    n "placeholder_count" (C.placeholder_count c);
    n "resident blocks" (C.length c);
    ("global order", blocks (C.lru_keys c));
  ]
  @ List.map
      (fun (pid, prio) ->
        ( Printf.sprintf "level (pid=%d, prio=%d)" (Pid.to_int pid) prio,
          blocks (C.level_blocks c pid ~prio) ))
      levels
  @ List.map
      (fun pid ->
        ( Printf.sprintf "manager %d decisions/overrules/mistakes/revoked" (Pid.to_int pid),
          Printf.sprintf "%d/%d/%d/%b" (C.manager_decisions c pid) (C.manager_overrules c pid)
            (C.manager_mistakes c pid) (C.manager_revoked c pid) ))
      pids

let records evs =
  let pp ppf ev = Trace.pp ppf { Trace.time = 0.0; ev } in
  Format.asprintf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp)
    (List.rev evs)

let run ?(deep_every = 512) config ops =
  let a = Cache.create config and b = Cache_spec.create config in
  let ea = ref [] and eb = ref [] in
  let columnar r = ea := r.Trace.ev :: !ea in
  Cache.set_obs a (Some (Sink.create ~backend:(Sink.Custom columnar) ()));
  Cache_spec.set_observer b (Some (fun e -> eb := e :: !eb));
  (* The levels worth comparing: every (pid, prio) a control op named,
     and level 0 of every manager registered. *)
  let levels = ref [] and pids = ref [] in
  let note r x = if not (List.mem x !r) then r := x :: !r in
  let exception Diverged of divergence in
  let agree step what columnar spec =
    if columnar <> spec then
      let op = Format.asprintf "%a" pp_op ops.(step) in
      raise (Diverged { step; op; what; columnar; spec })
  in
  let deep step =
    List.iter2
      (fun (what, va) (_, vb) -> agree step what va vb)
      (abstraction (module Cache) a ~levels:!levels ~pids:!pids)
      (abstraction (module Cache_spec) b ~levels:!levels ~pids:!pids);
    agree step "columnar invariants" (outcome (fun () -> Cache.check_invariants a; "ok")) "ok";
    agree step "spec validity" "valid" (if Cache_spec.valid b then "valid" else "invalid")
  in
  let last = Array.length ops - 1 in
  match
    Array.iteri
      (fun step op ->
        ea := [];
        eb := [];
        let ra = apply (module Cache) a op in
        let rb = apply (module Cache_spec) b op in
        (match op with
        | Register_manager pid ->
          note levels (pid, 0);
          note pids pid
        | Set_priority { pid; prio; _ }
        | Set_policy { pid; prio; _ }
        | Set_temppri { pid; prio; _ } ->
          note levels (pid, prio)
        | Read _ | Write _ | Sync _ | Invalidate_file _ | Unregister_manager _ | Set_chooser _ ->
          ());
        agree step "result" ra rb;
        if !ea <> !eb then agree step "trace records" (records !ea) (records !eb);
        if (step + 1) mod deep_every = 0 || step = last then deep step)
      ops
  with
  | () -> Ok (Array.length ops)
  | exception Diverged d -> Error d

let of_references ?(pid = Pid.make 1) blocks =
  Array.map (fun block -> Read { pid; block; prefetch = false }) blocks
