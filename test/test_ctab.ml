(* Property tests for the columnar substrates: {!Ilist} against {!Dll},
   {!Itbl} against a stdlib [Hashtbl] model, the ACM's derived set
   order against the [(Block.t, int) Hashtbl.t] whose order it keeps,
   {!Btbl.hash} against [Hashtbl.hash], {!Ctab} slot lifecycle
   (free-list reuse, growth), {!Engine.Equeue} ordering against the
   generic {!Heap}, and the full-cache {!Lockstep} random-op property.
   All randomness comes from seeded {!Rng}, so failures replay. *)

open Acfc_core
open Tutil

(* {2 Ilist vs Dll: random op sequences over one shared store} *)

(* The model pairs each live slot with its Dll node. Ops are chosen
   among push_front/push_back/remove/move_front/move_back/swap on a
   random member, interleaved with membership churn, and after every op
   the front-to-back orders must agree. *)
let ilist_model_test ~seed ~ops () =
  let rng = Acfc_sim.Rng.create seed in
  let store = Ilist.make_store 4 in
  let il = Ilist.create () in
  let dll = Dll.create () in
  let nodes = Hashtbl.create 16 (* slot -> int Dll.node *) in
  let members () = Hashtbl.fold (fun s _ acc -> s :: acc) nodes [] in
  let pick_member () =
    let ms = List.sort compare (members ()) in
    List.nth ms (Acfc_sim.Rng.int rng (List.length ms))
  in
  let next_slot = ref 0 in
  for step = 1 to ops do
    let have = Hashtbl.length nodes in
    let r = Acfc_sim.Rng.int rng 100 in
    if have = 0 || r < 30 then begin
      let s = !next_slot in
      incr next_slot;
      Ilist.grow_store store (s + 1);
      if Acfc_sim.Rng.int rng 2 = 0 then begin
        Ilist.push_front store il s;
        Hashtbl.replace nodes s (Dll.push_front dll s)
      end
      else begin
        Ilist.push_back store il s;
        Hashtbl.replace nodes s (Dll.push_back dll s)
      end
    end
    else if r < 45 then begin
      let s = pick_member () in
      Ilist.remove store il s;
      Dll.remove dll (Hashtbl.find nodes s);
      Hashtbl.remove nodes s
    end
    else if r < 65 then begin
      let s = pick_member () in
      Ilist.move_front store il s;
      Dll.move_front dll (Hashtbl.find nodes s)
    end
    else if r < 85 then begin
      let s = pick_member () in
      Ilist.move_back store il s;
      Dll.move_back dll (Hashtbl.find nodes s)
    end
    else begin
      let a = pick_member () and b = pick_member () in
      if a <> b then begin
        Ilist.swap store il a b;
        (* [swap_values] exchanges values between the two nodes, so the
           slot -> node map must be repaired through [on_move]. *)
        Dll.swap_values
          ~on_move:(fun v n -> Hashtbl.replace nodes v n)
          dll (Hashtbl.find nodes a) (Hashtbl.find nodes b)
      end
    end;
    let got = Ilist.to_list store il in
    let want = Dll.to_list dll in
    if got <> want then
      Alcotest.failf "step %d: ilist %s, dll %s" step
        (String.concat "," (List.map string_of_int got))
        (String.concat "," (List.map string_of_int want));
    chk_int "length agrees" (Dll.length dll) (Ilist.length il)
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

(* {2 Equeue vs Heap: random (time, seq) streams pop identically} *)

let equeue_model_test ~seed ~ops () =
  let rng = Acfc_sim.Rng.create seed in
  let module E = Acfc_sim.Engine.Equeue in
  let leq (ta, sa) (tb, sb) = ta < tb || (ta = tb && sa <= sb) in
  let eq = E.create () in
  let heap = Acfc_sim.Heap.create ~leq () in
  let popped = ref [] in
  let seq = ref 0 in
  for _ = 1 to ops do
    if (not (E.is_empty eq)) && Acfc_sim.Rng.int rng 3 = 0 then begin
      let tm, sq = Acfc_sim.Heap.pop_exn heap in
      chk_float "top_time" tm (E.top_time eq);
      (match E.pop eq with
      | E.Thunk f -> f ()
      | _ -> Alcotest.fail "unexpected job kind");
      match !popped with
      | (tm', sq') :: _ ->
        chk_float "pop time" tm tm';
        chk_int "pop seq" sq sq'
      | [] -> Alcotest.fail "pop recorded nothing"
    end
    else begin
      incr seq;
      let s = !seq in
      (* Coarse times force plenty of same-instant ties. *)
      let time = float_of_int (Acfc_sim.Rng.int rng 50) in
      E.push eq ~time ~seq:s (E.Thunk (fun () -> popped := (time, s) :: !popped));
      Acfc_sim.Heap.push heap (time, s)
    end
  done;
  chk_int "lengths agree" (Acfc_sim.Heap.length heap) (E.length eq);
  (* Drain: the full remaining order must agree. *)
  while not (E.is_empty eq) do
    let tm, sq = Acfc_sim.Heap.pop_exn heap in
    (match E.pop eq with E.Thunk f -> f () | _ -> Alcotest.fail "bad job");
    match !popped with
    | (tm', sq') :: _ ->
      chk_float "drain time" tm tm';
      chk_int "drain seq" sq sq'
    | [] -> Alcotest.fail "drain recorded nothing"
  done;
  chk_bool "heap drained too" true (Acfc_sim.Heap.is_empty heap)

(* {2 Lockstep random-op property: whole columnar cache vs record twin} *)

let lockstep_random ~seed ~alloc_policy () =
  let rng = Acfc_sim.Rng.create seed in
  let ri = Acfc_sim.Rng.int rng in
  let ops =
    Array.init 4_000 (fun _ ->
        let p = pid (1 + ri 3) in
        let block = blk ~file:(ri 4) (ri 64) in
        let r = ri 100 in
        if r < 50 then Lockstep.Read { pid = p; block; prefetch = ri 8 = 0 }
        else if r < 70 then Lockstep.Write { pid = p; block; fetch = ri 2 = 0 }
        else if r < 76 then Lockstep.Register_manager p
        else if r < 82 then
          Lockstep.Set_priority { pid = p; file = ri 4; prio = ri 3 }
        else if r < 86 then
          Lockstep.Set_policy
            { pid = p; prio = ri 3; policy = (if ri 2 = 0 then Policy.Lru else Policy.Mru) }
        else if r < 90 then Lockstep.Sync (if ri 2 = 0 then None else Some (ri 4))
        else if r < 95 then Lockstep.Invalidate_file (ri 4)
        else Lockstep.Unregister_manager p)
  in
  let config = config ~alloc_policy 48 in
  match Lockstep.run ~deep_every:200 config ops with
  | Ok n -> chk_int "all ops replayed" (Array.length ops) n
  | Error d -> Alcotest.failf "%s" (Format.asprintf "%a" Lockstep.pp_divergence d)

(* {2 Temporary priorities over ranges around the member count}

   [Acm.set_temppri] walks a range index by index while it holds at
   most as many indices as the manager has members, and visits the
   file's members inside it otherwise. Random ranges of 1 to 120 blocks
   over a 48-block cache with three managers fall on both sides of the
   member count; {!Lockstep} holds every step against {!Acm_ref}, whose
   index loop is the oracle, comparing level orders after each step. A
   replay of the same ops on a plain cache counts the calls on each
   side: both must be reached. *)

let temppri_ops ~seed =
  let rng = Acfc_sim.Rng.create seed in
  let ri = Acfc_sim.Rng.int rng in
  let registers = Array.init 3 (fun i -> Lockstep.Register_manager (pid (1 + i))) in
  Array.append registers
    (Array.init 3_000 (fun _ ->
         let p = pid (1 + ri 3) in
         let r = ri 100 in
         if r < 70 then
           Lockstep.Read { pid = p; block = blk ~file:(ri 3) (ri 64); prefetch = ri 8 = 0 }
         else if r < 76 then Lockstep.Set_priority { pid = p; file = ri 3; prio = ri 3 }
         else if r < 80 then
           Lockstep.Set_policy
             { pid = p; prio = ri 3; policy = (if ri 2 = 0 then Policy.Lru else Policy.Mru) }
         else begin
           let first = ri 64 in
           Lockstep.Set_temppri
             { pid = p; file = ri 3; first; last = first + ri 120; prio = ri 3 }
         end))

let lockstep_temppri_ranges ~seed () =
  let config = config 48 in
  let ops = temppri_ops ~seed in
  (match Lockstep.run ~deep_every:1 config ops with
  | Ok n -> chk_int "all ops replayed" (Array.length ops) n
  | Error d -> Alcotest.failf "%s" (Format.asprintf "%a" Lockstep.pp_divergence d));
  let c = Cache.create config in
  let index_loop = ref 0 and member_walk = ref 0 in
  Array.iter
    (function
      | Lockstep.Read { pid; block; prefetch } -> ignore (Cache.read ~prefetch c ~pid block)
      | Lockstep.Register_manager p -> ignore (Cache.register_manager c p)
      | Lockstep.Set_priority { pid; file; prio } ->
        ignore (Cache.set_priority c pid ~file ~prio)
      | Lockstep.Set_policy { pid; prio; policy } -> ignore (Cache.set_policy c pid ~prio policy)
      | Lockstep.Set_temppri { pid; file; first; last; prio } ->
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

(* {2 The ACM's derived fold order vs (Block.t, int) Hashtbl}

   A manager's block set is no table: the ACM derives the order in
   which a fold of its predecessor's [(Block.t, int) Hashtbl.t] visits
   the set from insert stamps and an emulated bucket count. This
   property drives a whole LRU-SP cache of 2,048 blocks with managed
   reads, evictions, ownership transfers and [set_priority] relinks,
   mirrors each step's membership changes into one stdlib table per
   manager (removals first, as an eviction precedes its load), and
   after every step compares:
   - [Cache.manager_resident] with the model's fold;
   - after a [set_priority], the level it relinked into, whose front
     must hold the moved blocks in the model's fold order;
   - at every upcall, the resident list the chooser receives.
   Keys span several files, with file ids and indices up to the
   packable limits. Each case runs until a manager's set has passed
   1,024 members, so its buckets have doubled from 256 to 512 and then
   to 1,024, and on through 400 more evictions. It fails unless some [set_priority]
   relinked two or more blocks and some chooser received a resident
   list. The model is the runtime's own [Hashtbl], so a change to it in
   a new compiler fails here. *)

(* The largest file id and block index {!Block.pack} accepts. *)
let max_file = (1 lsl 30) - 1

let max_index = (1 lsl 32) - 1

type reach = {
  mutable max_members : int;
  mutable max_relinked : int;  (* the most blocks one set_priority moved *)
  mutable chooser_lists : int;  (* upcalls handed a non-empty resident set *)
}

(* Runs one case; [Error] names the first disagreement. Membership
   follows the traced events: an evicted block leaves its manager's
   set, a miss joins the reader's, and a hit by another pid moves the
   block to the reader's (the default [Transfer] discipline). *)
let fold_order_storm ~files ~bases ~seed =
  let rng = Acfc_sim.Rng.create seed in
  let ri = Acfc_sim.Rng.int rng in
  let nfiles = Array.length files in
  (* Key [i] keeps [i] in its index's low 12 bits, so keys are distinct
     whatever the ids. *)
  let pool =
    Array.init 2_400 (fun i ->
        Block.make ~file:files.(i mod nfiles)
          ~index:(bases.(i mod Array.length bases) land lnot 4095 lor i))
  in
  let cache = Cache.create (config ~alloc_policy:Config.Lru_sp 1_280) in
  let events = ref [] in
  Cache.set_tracer cache (Some (fun e -> events := e :: !events));
  (* Managers are pids 1 and 2, models 0 and 1; pid 3 has none. *)
  let models = [| Hashtbl.create 256; Hashtbl.create 256 |] in
  let model_of p = match Pid.to_int p with 1 -> 0 | 2 -> 1 | _ -> -1 in
  let holder = Hashtbl.create 2_048 (* block -> model *) in
  for i = 0 to 1 do
    ok_exn (Cache.register_manager cache (pid (i + 1)))
  done;
  let model_fold m = Hashtbl.fold (fun b _ acc -> b :: acc) m [] in
  let reach = { max_members = 0; max_relinked = 0; chooser_lists = 0 } in
  let failure = ref None in
  let step = ref 0 in
  let fail fmt =
    Format.kasprintf (fun m -> if !failure = None then failure := Some m) fmt
  in
  (* Picks by position, so a wrong order picks a wrong victim. *)
  let chooser m ~candidate ~resident =
    if resident <> [] then reach.chooser_lists <- reach.chooser_lists + 1;
    if resident <> model_fold m then fail "step %d: chooser's resident list" !step;
    match resident with
    | [] -> None
    | l -> Some (List.nth l (Block.index candidate mod List.length l))
  in
  ok_exn (Cache.set_chooser cache (pid 2) (Some (chooser models.(1))));
  let leave b =
    match Hashtbl.find_opt holder b with
    | Some i ->
      Hashtbl.remove models.(i) b;
      Hashtbl.remove holder b
    | None -> ()
  in
  let join p b =
    let i = model_of p in
    if i >= 0 then begin
      Hashtbl.replace models.(i) b 0;
      Hashtbl.replace holder b i
    end
  in
  let apply_events () =
    let evs = List.rev !events in
    events := [];
    List.iter
      (function
        | Event.Evict { victim; _ } -> leave victim
        | Event.Hit { pid = p; block } ->
          if Hashtbl.find_opt holder block <> Some (model_of p) then leave block
        | _ -> ())
      evs;
    List.iter
      (function
        | Event.Miss { pid = p; block; _ } -> join p block
        | Event.Hit { pid = p; block } ->
          if Hashtbl.find_opt holder block <> Some (model_of p) then join p block
        | _ -> ())
      evs
  in
  let compare_order i =
    let p = pid (i + 1) and m = models.(i) in
    let n = Cache.manager_members cache p in
    if n <> Hashtbl.length m then
      fail "step %d: %d members, model %d" !step n (Hashtbl.length m);
    reach.max_members <- max reach.max_members n;
    if Cache.manager_resident cache p <> model_fold m then
      fail "step %d: pid %d's fold order (%d members)" !step (i + 1) n
  in
  let set_priority i =
    let p = pid (i + 1) and file = files.(ri nfiles) and prio = ri 3 in
    let old = ok_exn (Cache.get_priority cache p ~file) in
    let before = Cache.level_blocks cache p ~prio in
    let moving = Hashtbl.create 64 in
    List.iter
      (fun prio' ->
        if prio' <> prio then
          List.iter
            (fun b -> if Block.file b = file then Hashtbl.replace moving b ())
            (Cache.level_blocks cache p ~prio:prio'))
      [ 0; 1; 2 ];
    ok_exn (Cache.set_priority cache p ~file ~prio);
    if old <> prio then begin
      reach.max_relinked <- max reach.max_relinked (Hashtbl.length moving);
      (* Each relinked block was pushed to the front in fold order. *)
      let moved b acc = if Hashtbl.mem moving b then b :: acc else acc in
      let want = Hashtbl.fold (fun b _ acc -> moved b acc) models.(i) [] @ before in
      if Cache.level_blocks cache p ~prio <> want then
        fail "step %d: set_priority relinked out of fold order" !step
    end
  in
  (* Past 1,024 members, run on until 400 more evictions. *)
  let crossed_at = ref (-1) in
  while
    !failure = None
    && (!crossed_at < 0 || Cache.evictions cache < !crossed_at + 400)
    && !step < 10_000
  do
    let r = ri 100 in
    if r < 95 then begin
      let p = if r < 80 then pid 1 else if r < 90 then pid 2 else pid 3 in
      ignore (Cache.read ~prefetch:(ri 8 = 0) cache ~pid:p pool.(ri (Array.length pool)))
    end
    else set_priority (ri 2);
    apply_events ();
    compare_order 0;
    compare_order 1;
    if !crossed_at < 0 && reach.max_members > 1_024 then begin
      crossed_at := Cache.evictions cache;
      (* The big set now consults an upcall too. *)
      ok_exn (Cache.set_chooser cache (pid 1) (Some (chooser models.(0))))
    end;
    incr step
  done;
  match !failure with
  | Some m -> Error m
  | None ->
    if !crossed_at < 0 then
      Error (Printf.sprintf "no set passed 1,024 members in %d steps" !step)
    else if Cache.evictions cache < !crossed_at + 400 then
      Error "too few evictions past 1,024 members"
    else if reach.max_relinked < 2 then Error "no set_priority relinked two blocks"
    else if reach.chooser_lists = 0 then Error "no chooser received a resident list"
    else Ok ()

let fold_order_gen =
  let open QCheck2.Gen in
  let id bound = oneof [ int_range 0 40; int_range 0 bound ] in
  triple
    (array_size (int_range 2 6) (id max_file))
    (array_size (int_range 1 4) (id max_index))
    (int_range 0 1_000_000)

let acm_folds_like_hashtbl =
  qcheck "acm set folds like (Block.t, int) Hashtbl past 1,024 members" ~count:4
    fold_order_gen (fun (files, bases, seed) ->
      match fold_order_storm ~files ~bases ~seed with
      | Ok () -> true
      | Error m -> QCheck2.Test.fail_report m)

let btbl_hash_is_hashtbl_hash () =
  List.iter
    (fun (file, index) ->
      let b = Block.make ~file ~index in
      chk_int (Format.asprintf "%a" Block.pp b) (Hashtbl.hash b) (Btbl.hash (Block.pack b)))
    [
      (0, 0);
      (1, 0);
      (0, 1);
      (3, 12_345);
      (max_file, max_index);
      (7, (1 lsl 31) - 1);
      (7, 1 lsl 31);
    ]

let suites =
  [
    ( "ctab",
      [
        case "ilist vs dll, seed 1" (ilist_model_test ~seed:1 ~ops:2_000);
        case "ilist vs dll, seed 2" (ilist_model_test ~seed:2 ~ops:2_000);
        case "itbl vs hashtbl, dense keys"
          (itbl_model_test ~seed:3 ~ops:6_000 ~keyspace:64);
        case "itbl vs hashtbl, sparse keys"
          (itbl_model_test ~seed:4 ~ops:6_000 ~keyspace:100_000);
        case "itbl steady live count never rehashes" itbl_steady_count_never_rehashes;
        itbl_churn_keeps_keys_reachable;
        case "itbl spreads packed multi-file keys" itbl_multi_file_spread;
        case "btbl hash is Hashtbl.hash of the record" btbl_hash_is_hashtbl_hash;
        acm_folds_like_hashtbl;
        case "ctab slot lifecycle and free-list reuse" ctab_lifecycle;
        case "ctab growth preserves columns" ctab_growth;
        case "equeue vs heap, seed 5" (equeue_model_test ~seed:5 ~ops:3_000);
        case "equeue vs heap, seed 6" (equeue_model_test ~seed:6 ~ops:3_000);
        case "lockstep random ops, lru-sp"
          (lockstep_random ~seed:7 ~alloc_policy:Config.Lru_sp);
        case "lockstep random ops, clock-sp"
          (lockstep_random ~seed:8 ~alloc_policy:Config.Clock_sp);
        case "lockstep temppri ranges around the member count, seed 9"
          (lockstep_temppri_ranges ~seed:9);
        case "lockstep temppri ranges around the member count, seed 10"
          (lockstep_temppri_ranges ~seed:10);
        case "a 2^32-block temppri range matches the index loop"
          temppri_full_range_matches_index_loop;
      ] );
  ]
