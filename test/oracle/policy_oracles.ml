(* Full-scan oracles for the ranked adaptive cores.

   [Awrp] and [Perceptron] rank every resident block on every victim
   query: a fold over a [Hashtbl] of per-block records that computes
   each block's rank or score from scratch and keeps the minimum of
   (value, Block.compare). They are the plain reading of each policy.
   The cores in {!Acfc_policy.Cores} keep indexes instead — frequency
   classes for AWRP, score classes for the perceptron — and
   [test_policy_core.ml] checks that both name the same victims. The
   perceptron fold still scores all five features of the original
   vector (bias, age, frequency, level, file hash); the core dropped
   age and level, whose weights must never leave 0.0. Ghost lists are
   plain block lists, most recent first. Both are written over packed
   keys and get their ids from {!Reference.Of_keys}.
   O(n) per miss; test use only. *)

module Block = Acfc_core.Block
module Of_keys = Reference.Of_keys

let ghost_forget ghost block = List.filter (fun b -> not (Block.equal b block)) ghost

(* Push [block] on a ghost list of at most [cap] blocks, expiring the
   oldest beyond [cap]. *)
let ghost_push ghost block ~cap ~expire =
  let ghost = block :: ghost in
  List.iter expire (List.rev (List.filteri (fun i _ -> i >= cap) ghost));
  List.filteri (fun i _ -> i < cap) ghost

module Awrp = Of_keys (struct
  type info = { mutable cnt : int; mutable last : int }

  type t = {
    resident : (Block.t, info) Hashtbl.t;
    mutable ghost : Block.t list;
    ghost_cnt : (Block.t, int) Hashtbl.t;
    cap : int;
    mutable w : float;
    mutable nudges : int;
  }

  let name = "AWRP-FOLD"

  let summary = "AWRP by a full fold over the resident set"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      resident = Hashtbl.create 64;
      ghost = [];
      ghost_cnt = Hashtbl.create 64;
      cap = Stdlib.max 1 capacity;
      w = 0.5;
      nudges = 0;
    }

  let reference t ~pos key =
    match Hashtbl.find_opt t.resident (Block.unpack key) with
    | Some i ->
      i.cnt <- i.cnt + 1;
      i.last <- pos
    | None -> failwith "AWRP-FOLD: reference to non-resident block"

  let admit t ~pos key =
    let block = Block.unpack key in
    (match Hashtbl.find_opt t.ghost_cnt block with
    | Some cnt ->
      if cnt >= 2 then t.w <- Stdlib.min 0.95 (t.w +. 0.05)
      else t.w <- Stdlib.max 0.05 (t.w -. 0.05);
      t.nudges <- t.nudges + 1;
      t.ghost <- ghost_forget t.ghost block;
      Hashtbl.remove t.ghost_cnt block
    | None -> ());
    Hashtbl.replace t.resident block { cnt = 1; last = pos }

  let remove t key ~invalidated =
    let block = Block.unpack key in
    (match Hashtbl.find_opt t.resident block with
    | Some i when not invalidated ->
      Hashtbl.replace t.ghost_cnt block i.cnt;
      t.ghost <- ghost_push t.ghost block ~cap:t.cap ~expire:(Hashtbl.remove t.ghost_cnt)
    | Some _ | None -> ());
    Hashtbl.remove t.resident block

  let victim t ~pos =
    let best = ref None in
    Hashtbl.iter
      (fun block i ->
        let freq = Stdlib.min 1.0 (float_of_int i.cnt /. 16.0) in
        let recency = 1.0 /. float_of_int (1 + pos - i.last) in
        let value = (t.w *. freq) +. ((1.0 -. t.w) *. recency) in
        match !best with
        | None -> best := Some (value, block)
        | Some (bv, bb) ->
          if value < bv || (value = bv && Block.compare block bb < 0) then
            best := Some (value, block))
      t.resident;
    match !best with
    | Some (_, block) -> Block.pack block
    | None -> failwith "AWRP-FOLD: empty"

  let stats t =
    [
      ("w", t.w);
      ("nudges", float_of_int t.nudges);
      ("ghost", float_of_int (List.length t.ghost));
      ("resident", float_of_int (Hashtbl.length t.resident));
    ]
end)

module Perceptron = Of_keys (struct
  let n_features = 5

  type info = { mutable cnt : int; mutable last : int; mutable level : int }

  type t = {
    cap : int;
    resident : (Block.t, info) Hashtbl.t;
    mutable ghost : Block.t list;
    ghost_x : (Block.t, float array) Hashtbl.t;
    w : float array;
    mutable updates : int;
  }

  let name = "PERCEPTRON-FOLD"

  let summary = "PERCEPTRON by a full fold over the resident set"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      cap = Stdlib.max 1 capacity;
      resident = Hashtbl.create 64;
      ghost = [];
      ghost_x = Hashtbl.create 64;
      w = Array.make n_features 0.0;
      updates = 0;
    }

  let features t ~pos block i =
    let age = float_of_int (pos - i.last) /. float_of_int t.cap in
    let freq = Stdlib.min 1.0 (log (1.0 +. float_of_int i.cnt) /. log 256.0) in
    let level = float_of_int i.level /. 8.0 in
    let file_hash = float_of_int (Block.file block * 2654435761 land 255) /. 255.0 in
    [| 1.0; age; freq; level; file_hash |]

  let score t x =
    let s = ref 0.0 in
    for k = 0 to n_features - 1 do
      s := !s +. (t.w.(k) *. x.(k))
    done;
    !s

  let clamp v = if v > 4.0 then 4.0 else if v < -4.0 then -4.0 else v

  let learn t x ~sign =
    for k = 0 to n_features - 1 do
      t.w.(k) <- clamp (t.w.(k) +. (sign *. 0.0625 *. x.(k)))
    done;
    t.updates <- t.updates + 1

  let reference t ~pos key =
    match Hashtbl.find_opt t.resident (Block.unpack key) with
    | Some i ->
      i.cnt <- i.cnt + 1;
      i.last <- pos
    | None -> failwith "PERCEPTRON-FOLD: reference to non-resident block"

  let admit t ~pos key =
    let block = Block.unpack key in
    (match Hashtbl.find_opt t.ghost_x block with
    | Some x ->
      learn t x ~sign:1.0;
      t.ghost <- ghost_forget t.ghost block;
      Hashtbl.remove t.ghost_x block
    | None -> ());
    Hashtbl.replace t.resident block { cnt = 1; last = pos; level = 0 }

  let remove t key ~invalidated =
    let block = Block.unpack key in
    (match Hashtbl.find_opt t.resident block with
    | Some i when not invalidated ->
      Hashtbl.replace t.ghost_x block (features t ~pos:i.last block i);
      t.ghost <-
        ghost_push t.ghost block ~cap:t.cap ~expire:(fun b ->
            learn t (Hashtbl.find t.ghost_x b) ~sign:(-1.0);
            Hashtbl.remove t.ghost_x b)
    | Some _ | None -> ());
    Hashtbl.remove t.resident block

  let victim t ~pos =
    let best = ref None in
    Hashtbl.iter
      (fun block i ->
        let value = score t (features t ~pos block i) in
        match !best with
        | None -> best := Some (value, block)
        | Some (bv, bb) ->
          if value < bv || (value = bv && Block.compare block bb < 0) then
            best := Some (value, block))
      t.resident;
    match !best with
    | Some (_, block) -> Block.pack block
    | None -> failwith "PERCEPTRON-FOLD: empty"

  let stats t =
    Array.to_list (Array.mapi (fun k v -> (Printf.sprintf "w%d" k, v)) t.w)
    @ [
        ("updates", float_of_int t.updates);
        ("ghost", float_of_int (List.length t.ghost));
        ("resident", float_of_int (Hashtbl.length t.resident));
      ]
end)
