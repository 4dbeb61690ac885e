(* Naive record-based reference twins of the stock policy cores.

   One twin per stock policy, each a deliberately boring list/scan
   implementation over packed keys, kept so the equivalence tests and
   the bench [check] replay can prove the indexed cores in
   {!Acfc_policy.Cores} choose the same victims. The scans use the same
   deterministic total orders as their indexed counterparts: LRU-2's
   (penultimate, last) key was already total (last-reference positions
   are unique); OPT's never-used-again tier is broken by the block
   identity (any choice in that tier yields the same miss count); RAND's
   twin replays the same swap-with-last discipline over a plain list so
   the shared RNG draw sequence lands on the same block. O(n) per miss
   — do not use outside tests and benches. *)

module Block = Acfc_core.Block
open Acfc_policy.Policy_core

(* A twin written over packed keys: the state a naive scan keeps,
   without ids. {!Of_keys} gives it a {!CORE}'s ids. *)
module type KEYED = sig
  type t

  val name : string

  val summary : string

  val adaptive : bool

  val needs_future : bool

  val create : capacity:int -> future:Block.t array -> t

  val reference : t -> pos:int -> int -> unit

  val admit : t -> pos:int -> int -> unit

  val remove : t -> int -> invalidated:bool -> unit

  val victim : t -> pos:int -> int
  (** The packed key of the block to evict. *)

  val stats : t -> (string * float) list
end

(* A keyed twin as a {!CORE}: ids for its resident blocks from two
   [Hashtbl]s, handed out in order and never reused. *)
module Of_keys (K : KEYED) : CORE = struct
  type t = {
    k : K.t;
    ids : (int, int) Hashtbl.t;  (* packed key -> id *)
    keys : (int, int) Hashtbl.t;  (* id -> packed key *)
    mutable next : int;
  }

  let name = K.name

  let summary = K.summary

  let adaptive = K.adaptive

  let needs_future = K.needs_future

  let create ~capacity ~future =
    { k = K.create ~capacity ~future; ids = Hashtbl.create 64; keys = Hashtbl.create 64; next = 0 }

  let find t key = Option.value (Hashtbl.find_opt t.ids key) ~default:(-1)

  let key t id = Hashtbl.find t.keys id

  let reference t ~pos id = K.reference t.k ~pos (key t id)

  let admit t ~pos key =
    K.admit t.k ~pos key;
    let id = t.next in
    t.next <- id + 1;
    Hashtbl.replace t.ids key id;
    Hashtbl.replace t.keys id key;
    id

  let remove t id ~invalidated =
    let key = key t id in
    K.remove t.k key ~invalidated;
    Hashtbl.remove t.ids key;
    Hashtbl.remove t.keys id

  let evict t id = remove t id ~invalidated:false

  let invalidate t id = remove t id ~invalidated:true

  let victim t ~pos ~missing:_ = find t (K.victim t.k ~pos)

  let stats t = K.stats t.k
end

(* The parts of {!KEYED} every twin shares. *)
module Twin = struct
  let summary = "naive record twin of a stock core"

  let adaptive = false

  let needs_future = false

  let stats _ = []
end

let without key l = List.filter (fun k -> k <> key) l

(* Recency twin for LRU/MRU: most recent first, O(n) moves. *)
module Recency_ref = struct
  include Twin

  type t = { mutable order : int list }

  let create ~capacity:_ ~future:_ = { order = [] }

  let reference t ~pos:_ key = t.order <- key :: without key t.order

  let admit t ~pos:_ key = t.order <- key :: t.order

  let remove t key ~invalidated:_ = t.order <- without key t.order
end

module Lru = Of_keys (struct
  include Recency_ref

  let name = "LRU-REF"

  let victim t ~pos:_ =
    match List.rev t.order with
    | oldest :: _ -> oldest
    | [] -> failwith "LRU-REF: empty"
end)

module Mru = Of_keys (struct
  include Recency_ref

  let name = "MRU-REF"

  let victim t ~pos:_ =
    match t.order with newest :: _ -> newest | [] -> failwith "MRU-REF: empty"
end)

module Fifo = Of_keys (struct
  include Twin

  type t = { mutable order : int list }  (* oldest admission first *)

  let name = "FIFO-REF"

  let create ~capacity:_ ~future:_ = { order = [] }

  let reference _ ~pos:_ _ = ()

  let admit t ~pos:_ key = t.order <- t.order @ [ key ]

  let remove t key ~invalidated:_ = t.order <- without key t.order

  let victim t ~pos:_ =
    match t.order with oldest :: _ -> oldest | [] -> failwith "FIFO-REF: empty"
end)

module Clock = Of_keys (struct
  include Twin

  type t = {
    mutable ring : int list;  (* hand position first *)
    referenced : (int, unit) Hashtbl.t;
  }

  let name = "CLOCK-REF"

  let create ~capacity:_ ~future:_ = { ring = []; referenced = Hashtbl.create 64 }

  let reference t ~pos:_ key = Hashtbl.replace t.referenced key ()

  let admit t ~pos:_ key = t.ring <- t.ring @ [ key ]

  let remove t key ~invalidated:_ =
    t.ring <- without key t.ring;
    Hashtbl.remove t.referenced key

  let rec victim t ~pos =
    match t.ring with
    | [] -> failwith "CLOCK-REF: empty"
    | key :: rest ->
      if Hashtbl.mem t.referenced key then begin
        Hashtbl.remove t.referenced key;
        t.ring <- rest @ [ key ];
        victim t ~pos
      end
      else key
end)

module Rand = Of_keys (struct
  include Twin

  (* Same seed, same draws, same swap-with-last slot discipline as the
     core — expressed over a plain list indexed positionally. *)
  type t = { rng : Acfc_sim.Rng.t; mutable slots : int list }

  let name = "RAND-REF"

  let create ~capacity ~future:_ =
    { rng = Acfc_sim.Rng.create (capacity + 7); slots = [] }

  let reference _ ~pos:_ _ = ()

  let admit t ~pos:_ key = t.slots <- t.slots @ [ key ]

  (* The last slot fills the removed block's slot. *)
  let remove t key ~invalidated:_ =
    if List.mem key t.slots then begin
      let n = List.length t.slots - 1 in
      let last = List.nth t.slots n in
      t.slots <-
        List.filteri (fun i _ -> i < n) (List.map (fun k -> if k = key then last else k) t.slots)
    end

  let victim t ~pos:_ =
    match t.slots with
    | [] -> failwith "RAND-REF: empty"
    | slots -> List.nth slots (Acfc_sim.Rng.int t.rng (List.length slots))
end)

module Two_q = Of_keys (struct
  include Twin

  type t = {
    kin : int;
    kout : int;
    mutable a1in : int list;  (* oldest first *)
    mutable am : int list;  (* most recent first *)
    mutable a1out : int list;  (* oldest ghost first *)
  }

  let name = "2Q-REF"

  let create ~capacity ~future:_ =
    {
      kin = Stdlib.max 1 (capacity / 4);
      kout = Stdlib.max 1 (capacity / 2);
      a1in = [];
      am = [];
      a1out = [];
    }

  let reference t ~pos:_ key = if List.mem key t.am then t.am <- key :: without key t.am

  (* A ghost entry survives promotion (it only leaves A1out by aging
     past kout), exactly like the indexed core's ghost ring. *)
  let admit t ~pos:_ key =
    if List.mem key t.a1out then t.am <- key :: t.am else t.a1in <- t.a1in @ [ key ]

  let remove t key ~invalidated =
    if (not invalidated) && List.mem key t.a1in then begin
      t.a1in <- without key t.a1in;
      t.a1out <- t.a1out @ [ key ];
      let overflow = List.length t.a1out - t.kout in
      if overflow > 0 then t.a1out <- List.filteri (fun i _ -> i >= overflow) t.a1out
    end
    else begin
      (* Invalidation is not a replacement decision: no ghost entry. *)
      t.a1in <- without key t.a1in;
      t.am <- without key t.am
    end

  let victim t ~pos:_ =
    if List.length t.a1in > t.kin || t.am = [] then
      match t.a1in with oldest :: _ -> oldest | [] -> failwith "2Q-REF: empty"
    else match List.rev t.am with oldest :: _ -> oldest | [] -> assert false
end)

module Lru_2 = Of_keys (struct
  include Twin

  type t = { history : (int, int * int) Hashtbl.t }

  let name = "LRU-2-REF"

  let never = -1

  let create ~capacity:_ ~future:_ = { history = Hashtbl.create 1024 }

  let record t ~pos key =
    let last, _ = Option.value (Hashtbl.find_opt t.history key) ~default:(never, never) in
    Hashtbl.replace t.history key (pos, last)

  let reference = record

  let admit = record

  let remove t key ~invalidated:_ = Hashtbl.remove t.history key

  let victim t ~pos:_ =
    let best = ref None in
    Hashtbl.iter
      (fun key (last, penultimate) ->
        let better =
          match !best with
          | None -> true
          | Some (_, (blast, bpenultimate)) ->
            penultimate < bpenultimate || (penultimate = bpenultimate && last < blast)
        in
        if better then best := Some (key, (last, penultimate)))
      t.history;
    match !best with Some (key, _) -> key | None -> failwith "LRU-2-REF: empty"
end)

module Opt = Of_keys (struct
  include Twin

  type t = {
    future : (int, int list ref) Hashtbl.t;
    resident : (int, unit) Hashtbl.t;
  }

  let name = "OPT-REF"

  let needs_future = true

  let create ~capacity:_ ~future:trace =
    let future = Hashtbl.create 1024 in
    Array.iteri
      (fun pos block ->
        let key = Block.pack block in
        match Hashtbl.find_opt future key with
        | Some l -> l := pos :: !l
        | None -> Hashtbl.replace future key (ref [ pos ]))
      trace;
    Hashtbl.iter (fun _ l -> l := List.rev !l) future;
    { future; resident = Hashtbl.create 1024 }

  let consume t ~pos key =
    let l = Hashtbl.find t.future key in
    match !l with
    | p :: rest when p = pos -> l := rest
    | _ -> failwith "OPT-REF: trace position mismatch"

  let reference = consume

  let admit t ~pos key =
    consume t ~pos key;
    Hashtbl.replace t.resident key ()

  let remove t key ~invalidated:_ = Hashtbl.remove t.resident key

  let next_use t key = match !(Hashtbl.find t.future key) with [] -> max_int | p :: _ -> p

  (* Packed keys order like [Block.compare]. *)
  let victim t ~pos:_ =
    let best = ref None in
    Hashtbl.iter
      (fun key () ->
        let use = next_use t key in
        let better =
          match !best with
          | None -> true
          | Some (bkey, buse) -> use > buse || (use = buse && key > bkey)
        in
        if better then best := Some (key, use))
      t.resident;
    match !best with Some (key, _) -> key | None -> failwith "OPT-REF: empty"
end)

(* Run two cores as one through {!Acfc_replacement.Policy_sim.run}:
   both see every call, and every victim query asks both. Each keeps
   its own ids: the pair uses the first core's, and names a block to
   the second by its packed key. Returns the first query on which they
   name different blocks, as [(trace position, first's victim, second's
   victim)]. The second core learns the missing block's id only when
   the first remembers it; no stock core reads [missing]. *)
let lockstep (module A : CORE) (module B : CORE) ~capacity trace =
  let exception Diverged of int * int * int in
  let module Pair = struct
    type t = A.t * B.t

    let name = A.name ^ "|" ^ B.name

    let summary = "two cores in lockstep"

    let adaptive = A.adaptive || B.adaptive

    let needs_future = A.needs_future || B.needs_future

    let create ~capacity ~future = (A.create ~capacity ~future, B.create ~capacity ~future)

    let find (a, _) key = A.find a key

    let key (a, _) id = A.key a id

    (* The second core's id for the block the first calls [id]. *)
    let b_id (a, b) id = if id < 0 then -1 else B.find b (A.key a id)

    let reference ((a, b) as t) ~pos id =
      B.reference b ~pos (b_id t id);
      A.reference a ~pos id

    let admit (a, b) ~pos key =
      ignore (B.admit b ~pos key);
      A.admit a ~pos key

    let evict ((a, b) as t) id =
      B.evict b (b_id t id);
      A.evict a id

    let invalidate ((a, b) as t) id =
      B.invalidate b (b_id t id);
      A.invalidate a id

    let victim ((a, b) as t) ~pos ~missing =
      let va = A.victim a ~pos ~missing in
      let vb = B.victim b ~pos ~missing:(b_id t missing) in
      let ka = A.key a va and kb = B.key b vb in
      if ka = kb then va else raise (Diverged (pos, ka, kb))

    let stats (a, b) = A.stats a @ B.stats b
  end in
  match Acfc_replacement.Policy_sim.run (module Pair) ~capacity trace with
  | _ -> None
  | exception Diverged (pos, ka, kb) -> Some (pos, Block.unpack ka, Block.unpack kb)
