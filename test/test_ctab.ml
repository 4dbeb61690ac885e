(* Property tests for the columnar substrates: {!Ilist} against a list
   model, {!Itbl} against a stdlib [Hashtbl] model, {!Ctab} slot
   lifecycle (free-list reuse, growth), {!Engine.Equeue} ordering
   against a sorted list, the whole cache refining its executable spec
   ({!Acfc_oracle.Refine}) on random ops, and the stated order of a
   manager's set. All randomness comes from seeded {!Rng}, so failures
   replay. *)

open Acfc_core
open Tutil
module Refine = Acfc_oracle.Refine

(* {2 Ilist vs a list model: random op sequences over one shared store} *)

(* The model is the list's slots, front first. Ops are chosen among
   push_front/push_back/remove/move_front/move_back/swap on a random
   member, interleaved with membership churn, and after every op the
   front-to-back orders must agree. *)
let ilist_model_test ~seed ~ops () =
  let rng = Acfc_sim.Rng.create seed in
  let store = Ilist.make_store 4 in
  let il = Ilist.create () in
  let model = ref [] in
  let without s = List.filter (( <> ) s) !model in
  let pick_member () =
    let ms = List.sort compare !model in
    List.nth ms (Acfc_sim.Rng.int rng (List.length ms))
  in
  let next_slot = ref 0 in
  for step = 1 to ops do
    let r = Acfc_sim.Rng.int rng 100 in
    if !model = [] || r < 30 then begin
      let s = !next_slot in
      incr next_slot;
      Ilist.grow_store store (s + 1);
      if Acfc_sim.Rng.int rng 2 = 0 then begin
        Ilist.push_front store il s;
        model := s :: !model
      end
      else begin
        Ilist.push_back store il s;
        model := !model @ [ s ]
      end
    end
    else if r < 45 then begin
      let s = pick_member () in
      Ilist.remove store il s;
      model := without s
    end
    else if r < 65 then begin
      let s = pick_member () in
      Ilist.move_front store il s;
      model := s :: without s
    end
    else if r < 85 then begin
      let s = pick_member () in
      Ilist.move_back store il s;
      model := without s @ [ s ]
    end
    else begin
      let a = pick_member () and b = pick_member () in
      if a <> b then begin
        Ilist.swap store il a b;
        model := List.map (fun s -> if s = a then b else if s = b then a else s) !model
      end
    end;
    let got = Ilist.to_list store il in
    if got <> !model then
      Alcotest.failf "step %d: ilist %s, model %s" step
        (String.concat "," (List.map string_of_int got))
        (String.concat "," (List.map string_of_int !model));
    chk_int "length agrees" (List.length !model) (Ilist.length il)
  done;
  (* Walks agree with the order in both directions. *)
  let order = Ilist.to_list store il in
  let rec walk_front s acc =
    if s = Ilist.nil then acc
    else walk_front (Ilist.next_toward_front store s) (s :: acc)
  in
  chk_bool "back-to-front walk" true (walk_front (Ilist.back il) [] = order);
  List.iter (fun s -> chk_bool "mem" true (Ilist.mem store il s)) order

(* {2 Itbl vs Hashtbl: random set/remove/find, shrink and reuse} *)

let itbl_model_test ~seed ~ops ~keyspace () =
  let rng = Acfc_sim.Rng.create seed in
  let t = Itbl.create 4 in
  let model = Hashtbl.create 16 in
  for _ = 1 to ops do
    let key = Acfc_sim.Rng.int rng keyspace in
    let r = Acfc_sim.Rng.int rng 100 in
    if r < 55 then begin
      let v = Acfc_sim.Rng.int rng 1_000_000 in
      Itbl.set t key v;
      Hashtbl.replace model key v
    end
    else if r < 85 then begin
      Itbl.remove t key;
      Hashtbl.remove model key
    end
    else begin
      let want = match Hashtbl.find_opt model key with Some v -> v | None -> -1 in
      chk_int "find" want (Itbl.find t key);
      chk_bool "mem" (want >= 0) (Itbl.mem t key)
    end;
    chk_int "length" (Hashtbl.length model) (Itbl.length t)
  done;
  (* Every model binding is found, and iter covers exactly the model. *)
  Hashtbl.iter (fun k v -> chk_int "final find" v (Itbl.find t k)) model;
  let seen = ref 0 in
  Itbl.iter
    (fun k v ->
      incr seen;
      chk_int "iter binding" (Hashtbl.find model k) v)
    t;
  chk_int "iter count" (Hashtbl.length model) !seen

(* A steady live count never rehashes: backward-shift deletion leaves
   no tombstone behind, so remove/insert cycles at a fixed live set keep
   the table at its original capacity however long they run. *)
let itbl_steady_count_never_rehashes () =
  let t = Itbl.create 1024 in
  for i = 0 to 1023 do
    Itbl.set t i i
  done;
  let cap = Itbl.capacity t in
  for i = 1024 to 40_000 do
    Itbl.remove t (i - 1024);
    Itbl.set t i i;
    chk_int "live count" 1024 (Itbl.length t)
  done;
  chk_int "capacity" cap (Itbl.capacity t);
  for i = 39_000 to 40_000 do
    chk_int "recent keys live" i (Itbl.find t i)
  done

(* Random set/remove churn with the live count up to 3/4 of the slots,
   the most an insert leaves before it rehashes. Keys [a + j * cap]
   share one home slot (the hash's low bits come from the key's), so
   probe runs collide, merge and wrap around the array's end; keys with
   a file id in the high bits ride along. After every op, each model
   binding must be found: [find] walks from the key's home slot and
   stops at the first empty one, so a removal that left a key behind an
   empty slot fails here. The capacity must never change. *)
let itbl_churn_keeps_keys_reachable =
  let gen =
    let open QCheck2.Gen in
    let* bits = int_range 3 7 in
    let cap = 1 lsl bits in
    let key =
      oneof
        [
          map2 (fun a j -> a + (j * cap)) (int_bound (cap - 1)) (int_bound 7);
          map2 (fun f i -> (f lsl 32) lor i) (int_range 1 3) (int_bound (cap - 1));
        ]
    in
    pair (pure cap) (list_size (int_range 50 600) (pair (int_bound 9) key))
  in
  qcheck "itbl churn up to 3/4 load keeps every key reachable" ~count:300 gen
    (fun (cap, ops) ->
      let t = Itbl.create (cap / 2) and model = Hashtbl.create 16 in
      Itbl.capacity t = cap
      && List.for_all
           (fun (r, key) ->
             (if r < 6 && Itbl.length t < cap * 3 / 4 then begin
                Itbl.set t key r;
                Hashtbl.replace model key r
              end
              else begin
                Itbl.remove t key;
                Hashtbl.remove model key
              end);
             Itbl.capacity t = cap
             && Itbl.length t = Hashtbl.length model
             && Hashtbl.fold (fun k v ok -> ok && Itbl.find t k = v) model true)
           ops)

(* The hash must see the file id of a packed block: with the index
   alone, block i of every file shares one home slot and 64 files probe
   chains up to ~64 long. *)
let itbl_multi_file_spread () =
  let t = Itbl.create 4096 in
  for file = 0 to 63 do
    for index = 0 to 63 do
      Itbl.set t (Block.pack (blk ~file index)) index
    done
  done;
  chk_int "all bound" 4096 (Itbl.length t);
  let longest = Itbl.max_probe t in
  if longest > 8 then Alcotest.failf "longest probe %d > 8" longest

(* {2 Ctab: slot lifecycle, free-list reuse, growth} *)

let ctab_lifecycle () =
  let tab = Ctab.create ~initial:4 () in
  let alloc i =
    Ctab.alloc tab ~file:0 ~index:i ~key:(Block.pack (blk i)) ~owner:1
  in
  let s0 = alloc 0 and s1 = alloc 1 in
  chk_int "live" 2 (Ctab.live tab);
  chk_bool "s0 not free" false (Ctab.is_free tab s0);
  chk_bool "block roundtrip" true (Block.equal (blk 1) (Ctab.block tab s1));
  (* Fresh slots come initialised. *)
  chk_int "flags zero" 0 tab.Ctab.flags.(s0);
  chk_int "pins zero" 0 tab.Ctab.pinned.(s0);
  chk_int "unmanaged" (-1) tab.Ctab.managed.(s0);
  chk_int "no placeholders" (-1) tab.Ctab.ph_head.(s0);
  (* Release and re-alloc reuses the freed slot (LIFO free list) and
     re-initialises it. *)
  tab.Ctab.flags.(s0) <- Ctab.dirty_bit lor Ctab.referenced_bit;
  tab.Ctab.pinned.(s0) <- 3;
  Ctab.release tab s0;
  chk_bool "freed" true (Ctab.is_free tab s0);
  let s2 = alloc 2 in
  chk_int "slot reused" s0 s2;
  chk_int "flags reset on reuse" 0 tab.Ctab.flags.(s2);
  chk_int "pins reset on reuse" 0 tab.Ctab.pinned.(s2)

let ctab_growth () =
  let tab = Ctab.create ~initial:2 () in
  let slots =
    Array.init 100 (fun i ->
        Ctab.alloc tab ~file:1 ~index:i ~key:(Block.pack (blk ~file:1 i)) ~owner:2)
  in
  chk_int "live after growth" 100 (Ctab.live tab);
  chk_bool "capacity grew" true (Ctab.capacity tab >= 100);
  (* Growth preserved every column. *)
  Array.iteri
    (fun i s ->
      chk_int "file kept" 1 tab.Ctab.file.(s);
      chk_int "index kept" i tab.Ctab.index.(s);
      chk_int "owner kept" 2 tab.Ctab.owner.(s))
    slots;
  (* Distinct live slots. *)
  let sorted = List.sort_uniq compare (Array.to_list slots) in
  chk_int "slots distinct" 100 (List.length sorted);
  (* Release everything; all reusable. *)
  Array.iter (Ctab.release tab) slots;
  chk_int "all freed" 0 (Ctab.live tab);
  let again = Ctab.alloc tab ~file:0 ~index:7 ~key:(Block.pack (blk 7)) ~owner:0 in
  chk_bool "re-alloc after drain" true (again >= 0 && not (Ctab.is_free tab again))

(* {2 Equeue vs a sorted list: random (time, seq) streams pop identically} *)

let equeue_model_test ~seed ~ops () =
  let rng = Acfc_sim.Rng.create seed in
  let module E = Acfc_sim.Engine.Equeue in
  let eq = E.create () in
  (* The model: every pending (time, seq), least first. *)
  let model = ref [] in
  let popped = ref [] in
  let pop_both what =
    match !model with
    | [] -> Alcotest.fail "model empty"
    | (tm, sq) :: rest ->
      model := rest;
      chk_float (what ^ " top_time") tm (E.top_time eq);
      (match E.pop eq with E.Thunk f -> f () | _ -> Alcotest.fail "unexpected job kind");
      (match !popped with
      | (tm', sq') :: _ ->
        chk_float (what ^ " time") tm tm';
        chk_int (what ^ " seq") sq sq'
      | [] -> Alcotest.fail "pop recorded nothing")
  in
  let seq = ref 0 in
  for _ = 1 to ops do
    if (not (E.is_empty eq)) && Acfc_sim.Rng.int rng 3 = 0 then pop_both "pop"
    else begin
      incr seq;
      let s = !seq in
      (* Coarse times force plenty of same-instant ties. *)
      let time = float_of_int (Acfc_sim.Rng.int rng 50) in
      E.push eq ~time ~seq:s (E.Thunk (fun () -> popped := (time, s) :: !popped));
      model := List.merge compare !model [ (time, s) ]
    end
  done;
  chk_int "lengths agree" (List.length !model) (E.length eq);
  (* Drain: the full remaining order must agree. *)
  while not (E.is_empty eq) do
    pop_both "drain"
  done;
  chk_bool "model drained too" true (!model = [])

(* {2 Random ops: the whole columnar cache refines its spec} *)

let random_ops ~seed =
  let rng = Acfc_sim.Rng.create seed in
  let ri = Acfc_sim.Rng.int rng in
  Array.init 4_000 (fun _ ->
      let p = pid (1 + ri 3) in
      let block = blk ~file:(ri 4) (ri 64) in
      let r = ri 100 in
      if r < 50 then Refine.Read { pid = p; block; prefetch = ri 8 = 0 }
      else if r < 70 then Refine.Write { pid = p; block; fetch = ri 2 = 0 }
      else if r < 76 then Refine.Register_manager p
      else if r < 82 then Refine.Set_priority { pid = p; file = ri 4; prio = ri 3 }
      else if r < 86 then
        Refine.Set_policy
          { pid = p; prio = ri 3; policy = (if ri 2 = 0 then Policy.Lru else Policy.Mru) }
      else if r < 90 then Refine.Sync (if ri 2 = 0 then None else Some (ri 4))
      else if r < 95 then Refine.Invalidate_file (ri 4)
      else Refine.Unregister_manager p)

let refines ~deep_every config ops =
  match Refine.run ~deep_every config ops with
  | Ok n -> chk_int "all ops replayed" (Array.length ops) n
  | Error d -> Alcotest.failf "%s" (Format.asprintf "%a" Refine.pp_divergence d)

let refine_random ~seed ~alloc_policy () =
  refines ~deep_every:200 (config ~alloc_policy 48) (random_ops ~seed)

(* Three processes, three priorities and four files against limits of
   two each: registrations, levels and file records run out, and the
   control calls' errors must agree. A replay on a plain cache shows
   each limit refuses a call. *)
let refine_at_limits () =
  let config = config ~max_managers:2 ~max_levels:2 ~max_file_records:2 48 in
  let ops = random_ops ~seed:12 in
  refines ~deep_every:1 config ops;
  let c = Cache.create config in
  let results = Array.map (Refine.apply (module Cache) c) ops in
  List.iter
    (fun e ->
      let refused = "error " ^ Error.to_string e in
      chk_bool refused true (Array.mem refused results))
    [ Error.Too_many_managers; Error.Too_many_levels; Error.Too_many_file_records ]

(* Revocation, a placeholder budget far below the live count, and
   [Sticky] shared files, with the spec checked after every op. A
   replay on a plain cache shows the run reaches all three: a manager
   is revoked, the budget fills, and a manager references a block
   another manager holds. *)
let refine_revoke_recycle_sticky () =
  let config =
    Config.make ~capacity_blocks:48 ~max_placeholders:4 ~shared_files:Config.Sticky
      ~revocation:{ Config.min_decisions = 4; mistake_ratio = 0.05 }
      ()
  in
  let ops = random_ops ~seed:11 in
  refines ~deep_every:1 config ops;
  let c = Cache.create config in
  let revoked = ref false and full = ref false and shared = ref false in
  watch c (function Acfc_obs.Trace.Manager_revoked _ -> revoked := true | _ -> ());
  let held_by_another p block =
    List.exists
      (fun other -> other <> p && List.exists (Block.equal block) (Cache.manager_resident c other))
      [ pid 1; pid 2; pid 3 ]
  in
  Array.iter
    (fun op ->
      (match op with
      | Refine.Read { pid = p; block; _ } | Refine.Write { pid = p; block; _ } ->
        if Cache.is_manager c p && held_by_another p block then shared := true
      | _ -> ());
      ignore (Refine.apply (module Cache) c op);
      if Cache.placeholder_count c = 4 then full := true)
    ops;
  chk_bool "a manager was revoked" true !revoked;
  chk_bool "the placeholder budget filled" true !full;
  chk_bool "a manager referenced another's block" true !shared

(* {2 Temporary priorities over ranges around the member count}

   [Acm.set_temppri] walks a range index by index while it holds at
   most as many indices as the manager has members, and visits the
   file's members inside it otherwise. Random ranges of 1 to 120 blocks
   over a 48-block cache with three managers fall on both sides of the
   member count; {!Refine} holds every step against the spec, which
   moves the set's members inside the range, comparing level orders
   after each step. A replay of the same ops on a plain cache counts
   the calls on each side: both must be reached. *)

let temppri_ops ~seed =
  let rng = Acfc_sim.Rng.create seed in
  let ri = Acfc_sim.Rng.int rng in
  let registers = Array.init 3 (fun i -> Refine.Register_manager (pid (1 + i))) in
  Array.append registers
    (Array.init 3_000 (fun _ ->
         let p = pid (1 + ri 3) in
         let r = ri 100 in
         if r < 70 then
           Refine.Read { pid = p; block = blk ~file:(ri 3) (ri 64); prefetch = ri 8 = 0 }
         else if r < 76 then Refine.Set_priority { pid = p; file = ri 3; prio = ri 3 }
         else if r < 80 then
           Refine.Set_policy
             { pid = p; prio = ri 3; policy = (if ri 2 = 0 then Policy.Lru else Policy.Mru) }
         else begin
           let first = ri 64 in
           Refine.Set_temppri
             { pid = p; file = ri 3; first; last = first + ri 120; prio = ri 3 }
         end))

let refine_temppri_ranges ~seed () =
  let config = config 48 in
  let ops = temppri_ops ~seed in
  refines ~deep_every:1 config ops;
  let c = Cache.create config in
  let index_loop = ref 0 and member_walk = ref 0 in
  Array.iter
    (function
      | Refine.Read { pid; block; prefetch } -> ignore (Cache.read ~prefetch c ~pid block)
      | Refine.Register_manager p -> ignore (Cache.register_manager c p)
      | Refine.Set_priority { pid; file; prio } ->
        ignore (Cache.set_priority c pid ~file ~prio)
      | Refine.Set_policy { pid; prio; policy } -> ignore (Cache.set_policy c pid ~prio policy)
      | Refine.Set_temppri { pid; file; first; last; prio } ->
        let members = Cache.manager_members c pid in
        if last - first < members then incr index_loop
        else if members > 0 then incr member_walk;
        ignore (Cache.set_temppri c pid ~file ~first ~last ~prio)
      | _ -> assert false)
    ops;
  chk_bool "some ranges walked index by index" true (!index_loop > 0);
  chk_bool "some ranges wider than the member set" true (!member_walk > 0)

(* A range of 2^32 blocks moves exactly what one single-block call per
   index of the resident span moves: each of those takes the index
   loop, which the range's member walk must reproduce. *)
let temppri_full_range_matches_index_loop () =
  let build () =
    let c = Cache.create (config 48) in
    let p = pid 1 in
    ignore (Cache.register_manager c p);
    ignore (Cache.set_policy c p ~prio:1 Policy.Mru);
    (* Residents of files 0 and 1, read out of index order. *)
    List.iter
      (fun i -> ignore (Cache.read c ~pid:p (blk ~file:(i mod 2) ((i * 7) mod 40))))
      (List.init 40 Fun.id);
    (c, p)
  in
  let wide, p = build () in
  chk_bool "whole range accepted" true
    (Cache.set_temppri wide p ~file:0 ~first:3 ~last:Block.max_packed_index ~prio:1 = Ok ());
  let single, _ = build () in
  for index = 3 to 63 do
    ignore (Cache.set_temppri single p ~file:0 ~first:index ~last:index ~prio:1)
  done;
  let order c prio = List.map (Format.asprintf "%a" Block.pp) (Cache.level_blocks c p ~prio) in
  List.iter
    (fun prio ->
      chk_bool (Printf.sprintf "level %d order" prio) true (order wide prio = order single prio))
    [ 0; 1 ];
  chk_bool "blocks moved" true (order wide 1 <> []);
  Cache.check_invariants wide

(* {2 The stated order of a manager's set}

   Wherever a manager's block set shows its order, it is ascending by
   {!Block.compare}: by file, then by index. A [set_priority] relinks a
   file's resident blocks in it, and an upcall chooser receives the set
   in it. Each case reads blocks out of that order, so that a level
   list's own order differs from it, and runs on the columnar {!Cache}
   and on its spec, which states the order in one [List.sort]; the
   storms of `bench check` hold the two to each other on longer runs. *)

module type ORDERED = sig
  type t

  val create : Config.t -> t
  val read : ?prefetch:bool -> t -> pid:Pid.t -> Block.t -> [ `Hit | `Miss ]
  val register_manager : t -> Pid.t -> (unit, Error.t) result
  val set_priority : t -> Pid.t -> file:Block.file -> prio:int -> (unit, Error.t) result
  val set_policy : t -> Pid.t -> prio:int -> Policy.t -> (unit, Error.t) result

  val set_chooser :
    t ->
    Pid.t ->
    (candidate:Block.t -> resident:Block.t list -> Block.t option) option ->
    (unit, Error.t) result

  val level_blocks : t -> Pid.t -> prio:int -> Block.t list
  val check_invariants : t -> unit
end

module Columnar = struct
  include Cache

  let create config = Cache.create config
end

module Spec = struct
  include Acfc_oracle.Cache_spec

  let check_invariants c = chk_bool "spec valid" true (valid c)
end

let chk_blocks msg want got =
  let show l = String.concat " " (List.map (Format.asprintf "%a" Block.pp) l) in
  check Alcotest.string msg (show want) (show got)

(* File 0's blocks, read in the order 3 0 4 1 2, sit in level 0 as
   2 1 4 0 3 from the MRU end. Relinked into the LRU level 1, each
   enters at the MRU end, so the level reads 4 3 2 1 0 ahead of file
   1's blocks. A hit on block 2 makes level 1's order 2 4 3 1 0;
   relinked into the MRU level 2, each enters at the LRU end, so the
   level ends 0 1 2 3 4 behind file 2's blocks. *)
let relink_in_ascending_order (module C : ORDERED) () =
  let c = C.create (config 16) and p = pid 1 in
  let f0 = List.map (blk ~file:0) and f1 = blk ~file:1 and f2 = blk ~file:2 in
  let read b = ignore (C.read c ~pid:p b) in
  ok_exn (C.register_manager c p);
  ok_exn (C.set_policy c p ~prio:2 Policy.Mru);
  ok_exn (C.set_priority c p ~file:1 ~prio:1);
  ok_exn (C.set_priority c p ~file:2 ~prio:2);
  List.iter read (f0 [ 3; 0; 4; 1; 2 ] @ [ f1 5; f1 6; f2 5; f2 6 ]);
  chk_blocks "level 0 before" (f0 [ 2; 1; 4; 0; 3 ]) (C.level_blocks c p ~prio:0);
  ok_exn (C.set_priority c p ~file:0 ~prio:1);
  chk_blocks "level 0 emptied" [] (C.level_blocks c p ~prio:0);
  chk_blocks "LRU level 1" (f0 [ 4; 3; 2; 1; 0 ] @ [ f1 6; f1 5 ]) (C.level_blocks c p ~prio:1);
  read (blk ~file:0 2);
  ok_exn (C.set_priority c p ~file:0 ~prio:2);
  chk_blocks "level 1 keeps file 1" [ f1 6; f1 5 ] (C.level_blocks c p ~prio:1);
  chk_blocks "MRU level 2" ([ f2 6; f2 5 ] @ f0 [ 0; 1; 2; 3; 4 ]) (C.level_blocks c p ~prio:2);
  C.check_invariants c

(* Three files in two levels, read out of order, fill the cache; the
   chooser consulted at the next miss receives the sorted set.
   [resident], where the cache has it, must return the same list. *)
let chooser_receives_sorted_set (type c) (module C : ORDERED with type t = c)
    ~(resident : (c -> Pid.t -> Block.t list) option) () =
  let reads =
    [ blk ~file:2 1; blk ~file:0 9; blk ~file:1 2; blk ~file:0 3; blk ~file:2 0;
      blk ~file:1 7; blk ~file:0 5 ]
  in
  let c = C.create (config (List.length reads)) and p = pid 1 in
  ok_exn (C.register_manager c p);
  ok_exn (C.set_priority c p ~file:1 ~prio:1);
  let received = ref [] in
  ok_exn
    (C.set_chooser c p
       (Some
          (fun ~candidate:_ ~resident ->
            received := resident;
            None)));
  List.iter (fun b -> ignore (C.read c ~pid:p b)) reads;
  let set = List.sort Block.compare (C.level_blocks c p ~prio:0 @ C.level_blocks c p ~prio:1) in
  chk_blocks "every read resident" (List.sort Block.compare reads) set;
  let listed = Option.map (fun f -> f c p) resident in
  ignore (C.read c ~pid:p (blk ~file:0 0));
  chk_blocks "chooser's resident list" set !received;
  Option.iter (chk_blocks "manager_resident" set) listed;
  C.check_invariants c

(* {2 A fetch that lands later}

   A backend may leave a fetch in flight ([read_block] answers [false])
   and report its landing later through [fetched], as the file system
   does for a read-ahead. Until then the frame stays pinned: it is
   never a victim, and a miss with every frame so pinned raises
   [Cache_busy]. Once the fetch lands, the frame is evictable again.
   Here file 0's fetches land later and file 1's at once. *)
let deferred_fetch_stays_pinned () =
  let module C = Cache in
  let backend =
    {
      Backend.read_block = (fun k -> Block.packed_file k <> 0);
      write_block = ignore;
      evicted = ignore;
    }
  in
  let c = C.create ~backend (config 3) and p = pid 1 in
  let read b = ignore (C.read c ~pid:p b) in
  let f0 = blk ~file:0 and f1 = blk ~file:1 in
  List.iter read [ f0 0; f1 0; f1 1 ];
  (* [f0 0] sits at the LRU end through five capacity misses. *)
  List.iter read [ f1 2; f1 3; f1 4; f1 5; f1 6 ];
  chk_bool "an in-flight block is never a victim" true (C.contains c (f0 0));
  chk_bool "its neighbours were" false (C.contains c (f1 2));
  List.iter read [ f0 1; f0 2 ];
  Alcotest.check_raises "every frame pinned" C.Cache_busy (fun () -> read (f1 9));
  C.check_invariants c;
  C.fetched c (Block.pack (f0 0));
  read (f1 9);
  chk_bool "evictable once landed" false (C.contains c (f0 0));
  chk_bool "the miss took its frame" true (C.contains c (f1 9));
  chk_bool "the others stay pinned" true (C.contains c (f0 1) && C.contains c (f0 2));
  (match C.fetched c (Block.pack (f0 0)) with
  | () -> Alcotest.fail "a landing reported for an absent block"
  | exception Invalid_argument _ -> ());
  C.check_invariants c

let suites =
  [
    ( "ctab",
      [
        case "ilist vs a list model, seed 1" (ilist_model_test ~seed:1 ~ops:2_000);
        case "ilist vs a list model, seed 2" (ilist_model_test ~seed:2 ~ops:2_000);
        case "itbl vs hashtbl, dense keys"
          (itbl_model_test ~seed:3 ~ops:6_000 ~keyspace:64);
        case "itbl vs hashtbl, sparse keys"
          (itbl_model_test ~seed:4 ~ops:6_000 ~keyspace:100_000);
        case "itbl steady live count never rehashes" itbl_steady_count_never_rehashes;
        itbl_churn_keeps_keys_reachable;
        case "itbl spreads packed multi-file keys" itbl_multi_file_spread;
        case "ctab slot lifecycle and free-list reuse" ctab_lifecycle;
        case "ctab growth preserves columns" ctab_growth;
        case "equeue vs a sorted list, seed 5" (equeue_model_test ~seed:5 ~ops:3_000);
        case "equeue vs a sorted list, seed 6" (equeue_model_test ~seed:6 ~ops:3_000);
        case "refines the spec on random ops, lru-sp"
          (refine_random ~seed:7 ~alloc_policy:Config.Lru_sp);
        case "refines the spec on random ops, clock-sp"
          (refine_random ~seed:8 ~alloc_policy:Config.Clock_sp);
        case "refines the spec with revocation, a placeholder budget and sticky files"
          refine_revoke_recycle_sticky;
        case "refines the spec at the manager, level and file-record limits" refine_at_limits;
        case "refines the spec on temppri ranges around the member count, seed 9"
          (refine_temppri_ranges ~seed:9);
        case "refines the spec on temppri ranges around the member count, seed 10"
          (refine_temppri_ranges ~seed:10);
        case "a 2^32-block temppri range matches the index loop"
          temppri_full_range_matches_index_loop;
        case "set_priority relinks in ascending index order, columnar"
          (relink_in_ascending_order (module Columnar));
        case "set_priority relinks in ascending index order, spec"
          (relink_in_ascending_order (module Spec));
        case "a chooser receives the set in ascending order, columnar"
          (chooser_receives_sorted_set (module Columnar) ~resident:(Some Cache.manager_resident));
        case "a chooser receives the set in ascending order, spec"
          (chooser_receives_sorted_set (module Spec) ~resident:None);
        case "a fetch that lands later stays pinned, columnar" deferred_fetch_stays_pinned;
      ] );
  ]
