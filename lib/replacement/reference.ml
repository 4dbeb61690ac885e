(* Naive record-based reference twins of the stock policy cores.

   One twin per stock policy, each a deliberately boring list/scan
   implementation of the same {!Acfc_policy.Policy_core.CORE}
   signature, kept so the equivalence tests and the bench [check]
   replay can prove the indexed cores in {!Acfc_policy.Cores} choose
   the same victims. The scans use the same deterministic total orders
   as their indexed counterparts: LRU-2's (penultimate, last) key was
   already total (last-reference positions are unique); OPT's
   never-used-again tier is broken by the block identity (any choice in
   that tier yields the same miss count); RAND's twin replays the same
   swap-with-last discipline over a plain list so the shared RNG draw
   sequence lands on the same block. O(n) per miss — do not use outside
   tests and benches. *)

module Block = Acfc_core.Block
open Acfc_policy.Policy_core

(* The parts of {!CORE} every twin shares. *)
module Twin = struct
  let summary = "naive record twin of a stock core"

  let adaptive = false

  let needs_future = false

  let stats _ = []
end

let without block l = List.filter (fun b -> not (Block.equal b block)) l

(* Recency twin for LRU/MRU: most recent first, O(n) moves. *)
module Recency_ref = struct
  include Twin

  type t = { mutable order : Block.t list }

  let create ~capacity:_ ~future:_ = { order = [] }

  let on_event t = function
    | Reference { block; _ } -> t.order <- block :: without block t.order
    | Admit { block; _ } -> t.order <- block :: t.order
    | Evict { block } | Invalidate { block } -> t.order <- without block t.order
end

module Lru = struct
  include Recency_ref

  let name = "LRU-REF"

  let victim t ~pos:_ ~missing:_ =
    match List.rev t.order with
    | oldest :: _ -> oldest
    | [] -> failwith "LRU-REF: empty"
end

module Mru = struct
  include Recency_ref

  let name = "MRU-REF"

  let victim t ~pos:_ ~missing:_ =
    match t.order with newest :: _ -> newest | [] -> failwith "MRU-REF: empty"
end

module Fifo = struct
  include Twin

  type t = { mutable order : Block.t list }  (* oldest admission first *)

  let name = "FIFO-REF"

  let create ~capacity:_ ~future:_ = { order = [] }

  let on_event t = function
    | Reference _ -> ()
    | Admit { block; _ } -> t.order <- t.order @ [ block ]
    | Evict { block } | Invalidate { block } -> t.order <- without block t.order

  let victim t ~pos:_ ~missing:_ =
    match t.order with oldest :: _ -> oldest | [] -> failwith "FIFO-REF: empty"
end

module Clock = struct
  include Twin

  type t = {
    mutable ring : Block.t list;  (* hand position first *)
    referenced : (Block.t, unit) Hashtbl.t;
  }

  let name = "CLOCK-REF"

  let create ~capacity:_ ~future:_ = { ring = []; referenced = Hashtbl.create 64 }

  let on_event t = function
    | Reference { block; _ } -> Hashtbl.replace t.referenced block ()
    | Admit { block; _ } -> t.ring <- t.ring @ [ block ]
    | Evict { block } | Invalidate { block } ->
      t.ring <- without block t.ring;
      Hashtbl.remove t.referenced block

  let rec victim t ~pos ~missing =
    match t.ring with
    | [] -> failwith "CLOCK-REF: empty"
    | block :: rest ->
      if Hashtbl.mem t.referenced block then begin
        Hashtbl.remove t.referenced block;
        t.ring <- rest @ [ block ];
        victim t ~pos ~missing
      end
      else block
end

module Rand = struct
  include Twin

  (* Same seed, same draws, same swap-with-last slot discipline as the
     core — expressed over a plain list indexed positionally. *)
  type t = { rng : Acfc_sim.Rng.t; mutable slots : Block.t list }

  let name = "RAND-REF"

  let create ~capacity ~future:_ =
    { rng = Acfc_sim.Rng.create (capacity + 7); slots = [] }

  (* The last slot fills the removed block's slot. *)
  let remove t block =
    if List.exists (Block.equal block) t.slots then begin
      let n = List.length t.slots - 1 in
      let last = List.nth t.slots n in
      t.slots <-
        List.filteri (fun i _ -> i < n)
          (List.map (fun b -> if Block.equal b block then last else b) t.slots)
    end

  let on_event t = function
    | Reference _ -> ()
    | Admit { block; _ } -> t.slots <- t.slots @ [ block ]
    | Evict { block } | Invalidate { block } -> remove t block

  let victim t ~pos:_ ~missing:_ =
    match t.slots with
    | [] -> failwith "RAND-REF: empty"
    | slots -> List.nth slots (Acfc_sim.Rng.int t.rng (List.length slots))
end

module Two_q = struct
  include Twin

  type t = {
    kin : int;
    kout : int;
    mutable a1in : Block.t list;  (* oldest first *)
    mutable am : Block.t list;  (* most recent first *)
    mutable a1out : Block.t list;  (* oldest ghost first *)
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

  let on_event t = function
    | Reference { block; _ } ->
      if List.exists (Block.equal block) t.am then t.am <- block :: without block t.am
    | Admit { block; _ } ->
      (* A ghost entry survives promotion (it only leaves A1out by aging
         past kout), exactly like the indexed ghost table. *)
      if List.exists (Block.equal block) t.a1out then t.am <- block :: t.am
      else t.a1in <- t.a1in @ [ block ]
    | Evict { block } ->
      if List.exists (Block.equal block) t.a1in then begin
        t.a1in <- without block t.a1in;
        t.a1out <- t.a1out @ [ block ];
        let overflow = List.length t.a1out - t.kout in
        if overflow > 0 then t.a1out <- List.filteri (fun i _ -> i >= overflow) t.a1out
      end
      else t.am <- without block t.am
    | Invalidate { block } ->
      (* Not a replacement decision: no ghost entry. *)
      t.a1in <- without block t.a1in;
      t.am <- without block t.am

  let victim t ~pos:_ ~missing:_ =
    if List.length t.a1in > t.kin || t.am = [] then
      match t.a1in with
      | oldest :: _ -> oldest
      | [] -> failwith "2Q-REF: empty"
    else
      match List.rev t.am with oldest :: _ -> oldest | [] -> assert false
end

module Lru_2 = struct
  include Twin

  type t = { history : (Block.t, int * int) Hashtbl.t }

  let name = "LRU-2-REF"

  let never = -1

  let create ~capacity:_ ~future:_ = { history = Hashtbl.create 1024 }

  let on_event t = function
    | Reference { pos; block } | Admit { pos; block } ->
      let last, _ =
        Option.value (Hashtbl.find_opt t.history block) ~default:(never, never)
      in
      Hashtbl.replace t.history block (pos, last)
    | Evict { block } | Invalidate { block } -> Hashtbl.remove t.history block

  let victim t ~pos:_ ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block (last, penultimate) ->
        let better =
          match !best with
          | None -> true
          | Some (_, (blast, bpenultimate)) ->
            penultimate < bpenultimate
            || (penultimate = bpenultimate && last < blast)
        in
        if better then best := Some (block, (last, penultimate)))
      t.history;
    match !best with Some (block, _) -> block | None -> failwith "LRU-2-REF: empty"
end

module Opt = struct
  include Twin

  type t = {
    future : (Block.t, int list ref) Hashtbl.t;
    resident : (Block.t, unit) Hashtbl.t;
  }

  let name = "OPT-REF"

  let needs_future = true

  let create ~capacity:_ ~future:trace =
    let future = Hashtbl.create 1024 in
    Array.iteri
      (fun pos block ->
        match Hashtbl.find_opt future block with
        | Some l -> l := pos :: !l
        | None -> Hashtbl.replace future block (ref [ pos ]))
      trace;
    Hashtbl.iter (fun _ l -> l := List.rev !l) future;
    { future; resident = Hashtbl.create 1024 }

  let consume t ~pos block =
    let l = Hashtbl.find t.future block in
    match !l with
    | p :: rest when p = pos -> l := rest
    | _ -> failwith "OPT-REF: trace position mismatch"

  let on_event t = function
    | Reference { pos; block } -> consume t ~pos block
    | Admit { pos; block } ->
      consume t ~pos block;
      Hashtbl.replace t.resident block ()
    | Evict { block } | Invalidate { block } -> Hashtbl.remove t.resident block

  let next_use t block =
    match !(Hashtbl.find t.future block) with [] -> max_int | p :: _ -> p

  let victim t ~pos:_ ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block () ->
        let use = next_use t block in
        let better =
          match !best with
          | None -> true
          | Some (bblock, buse) ->
            use > buse || (use = buse && Block.compare block bblock > 0)
        in
        if better then best := Some (block, use))
      t.resident;
    match !best with Some (block, _) -> block | None -> failwith "OPT-REF: empty"
end

(* Run two cores as one through {!Policy_sim.run}: both see every
   event, and every victim query asks both. Returns the first query on
   which they name different blocks, as [(trace position, first's
   victim, second's victim)]. *)
let lockstep (module A : CORE) (module B : CORE) ~capacity trace =
  let exception Diverged of int * Block.t * Block.t in
  let module Pair = struct
    type t = A.t * B.t

    let name = A.name ^ "|" ^ B.name

    let summary = "two cores in lockstep"

    let adaptive = A.adaptive || B.adaptive

    let needs_future = A.needs_future || B.needs_future

    let create ~capacity ~future = (A.create ~capacity ~future, B.create ~capacity ~future)

    let on_event (a, b) event =
      A.on_event a event;
      B.on_event b event

    let victim (a, b) ~pos ~missing =
      let va = A.victim a ~pos ~missing in
      let vb = B.victim b ~pos ~missing in
      if Block.equal va vb then va else raise (Diverged (pos, va, vb))

    let stats (a, b) = A.stats a @ B.stats b
  end in
  match Policy_sim.run (module Pair) ~capacity trace with
  | _ -> None
  | exception Diverged (pos, va, vb) -> Some (pos, va, vb)
