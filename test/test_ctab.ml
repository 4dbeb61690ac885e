(* Property tests for the columnar substrates: {!Ilist} against {!Dll},
   {!Itbl} against a stdlib [Hashtbl] model, {!Btbl} against the
   [(Block.t, int) Hashtbl.t] whose order it keeps, {!Ctab} slot lifecycle
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

(* Steady-state churn must not degrade: a fixed live set with constant
   remove/insert cycles keeps the table at its original capacity (the
   backward-shift on remove prevents tombstone accretion — before it,
   this pattern forced a rehash every few thousand ops). *)
let itbl_churn_no_tombstone_growth () =
  let t = Itbl.create 1024 in
  for i = 0 to 1023 do
    Itbl.set t i i
  done;
  for i = 1024 to 40_000 do
    Itbl.remove t (i - 1024);
    Itbl.set t i i;
    chk_int "live count" 1024 (Itbl.length t)
  done;
  for i = 39_000 to 40_000 do
    chk_int "recent keys live" i (Itbl.find t i)
  done

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

(* {2 Btbl vs (Block.t, int) Hashtbl: same bindings, same fold order}

   The ACM's resident sets iterate observably, so {!Btbl} over packed
   keys must hold the buckets of a polymorphic table over the records.
   Keys span several files, with file ids and indices up to the packable
   limits. Each case first inserts 100 distinct keys into tables created
   at 16 buckets, which forces the resizes at 32 and 64 bindings, then
   replays random replace/remove/find calls, comparing folds after every
   call. The model is the runtime's own [Hashtbl.hash], so a change to
   it in a new compiler fails here. *)

type btbl_op = Replace of int * int | Remove of int | Find of int

(* The largest file id and block index {!Block.pack} accepts. *)
let max_file = (1 lsl 30) - 1

let max_index = (1 lsl 32) - 1

let btbl_gen =
  let open QCheck2.Gen in
  let id bound = oneof [ int_range 0 40; int_range 0 bound ] in
  (* Key [i] keeps [i] in its index's low byte, so keys are distinct
     however the ids shrink. *)
  let* pool =
    let* files = list_size (int_range 2 6) (id max_file) in
    let files = Array.of_list files in
    let* n = int_range 100 160 in
    flatten_l
      (List.init n (fun i ->
           map2
             (fun f index ->
               Block.make ~file:files.(f mod Array.length files)
                 ~index:(index land lnot 255 lor i))
             (int_range 0 5) (id max_index)))
  in
  let n = List.length pool in
  let op =
    frequency
      [
        (5, map2 (fun k v -> Replace (k, v)) (int_range 0 (n - 1)) (int_range 0 1000));
        (3, map (fun k -> Remove k) (int_range 0 (n - 1)));
        (2, map (fun k -> Find k) (int_range 0 (n - 1)));
      ]
  in
  pair (pure pool) (list_size (int_range 50 300) op)

let btbl_matches_hashtbl =
  qcheck "btbl folds like (Block.t, int) Hashtbl" ~count:200 btbl_gen (fun (pool, ops) ->
      let keys = Array.of_list pool in
      let t = Btbl.create 16 and model = Hashtbl.create 16 in
      let same () =
        Btbl.length t = Hashtbl.length model
        && Btbl.fold (fun k v acc -> (k, v) :: acc) t []
           = Hashtbl.fold (fun b v acc -> (Block.pack b, v) :: acc) model []
      in
      let apply = function
        | Replace (k, v) ->
          Btbl.replace t (Block.pack keys.(k)) v;
          Hashtbl.replace model keys.(k) v
        | Remove k ->
          Btbl.remove t (Block.pack keys.(k));
          Hashtbl.remove model keys.(k)
        | Find _ -> ()
      in
      let found = function
        | Find k -> Btbl.find_opt t (Block.pack keys.(k)) = Hashtbl.find_opt model keys.(k)
        | Replace _ | Remove _ -> true
      in
      let filled =
        List.for_all
          (fun i ->
            apply (Replace (i, i));
            same ())
          (List.init 100 Fun.id)
      in
      filled
      && (Btbl.stats t).Hashtbl.num_buckets >= 4 * 16
      && List.for_all
           (fun op ->
             apply op;
             found op && same ())
           ops)

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
        case "itbl churn stays tombstone-free" itbl_churn_no_tombstone_growth;
        case "itbl spreads packed multi-file keys" itbl_multi_file_spread;
        case "btbl hash is Hashtbl.hash of the record" btbl_hash_is_hashtbl_hash;
        btbl_matches_hashtbl;
        case "ctab slot lifecycle and free-list reuse" ctab_lifecycle;
        case "ctab growth preserves columns" ctab_growth;
        case "equeue vs heap, seed 5" (equeue_model_test ~seed:5 ~ops:3_000);
        case "equeue vs heap, seed 6" (equeue_model_test ~seed:6 ~ops:3_000);
        case "lockstep random ops, lru-sp"
          (lockstep_random ~seed:7 ~alloc_policy:Config.Lru_sp);
        case "lockstep random ops, clock-sp"
          (lockstep_random ~seed:8 ~alloc_policy:Config.Clock_sp);
      ] );
  ]
