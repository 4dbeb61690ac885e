module Block = Acfc_core.Block
module Rng = Acfc_sim.Rng

type t = Block.t array

let sequential ~file ~blocks =
  Array.init blocks (fun index -> Block.make ~file ~index)

let cyclic ~file ~blocks ~passes =
  Array.init (blocks * passes) (fun i -> Block.make ~file ~index:(i mod blocks))

let random ~rng ~file ~blocks ~length =
  Array.init length (fun _ -> Block.make ~file ~index:(Rng.int rng blocks))

let hot_cold ~rng ~hot_file ~hot_blocks ~cold_file ~cold_blocks ~hot_fraction ~length =
  if hot_fraction < 0.0 || hot_fraction > 1.0 then
    invalid_arg "Trace.hot_cold: fraction out of range";
  Array.init length (fun _ ->
      if Rng.float rng 1.0 < hot_fraction then
        Block.make ~file:hot_file ~index:(Rng.int rng hot_blocks)
      else Block.make ~file:cold_file ~index:(Rng.int rng cold_blocks))

let zipf ~rng ~file ~blocks ~skew ~length =
  if skew <= 0.0 then invalid_arg "Trace.zipf: skew must be positive";
  (* Inverse-CDF sampling over the finite harmonic weights. *)
  let weights = Array.init blocks (fun i -> 1.0 /. (float_of_int (i + 1) ** skew)) in
  let cumulative = Array.make blocks 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i w ->
      total := !total +. w;
      cumulative.(i) <- !total)
    weights;
  let sample () =
    let u = Rng.float rng !total in
    (* Binary search for the first cumulative weight >= u. *)
    let lo = ref 0 and hi = ref (blocks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.init length (fun _ -> Block.make ~file ~index:(sample ()))

let concat traces = Array.concat traces

let interleave ~rng traces =
  let arr = Array.of_list traces in
  let positions = Array.map (fun _ -> 0) arr in
  let total = Array.fold_left (fun acc tr -> acc + Array.length tr) 0 arr in
  let out = Array.make total (Block.make ~file:0 ~index:0) in
  (* Non-exhausted trace indices, kept in ascending order so each draw
     selects the same trace as the old per-step rebuild of the live
     list (same RNG sequence, same picks). The set only shrinks when a
     trace exhausts — at most once per trace, not once per step. *)
  let live = Array.init (Array.length arr) Fun.id in
  let n_live = ref (Array.length arr) in
  (* Empty input traces are never live. *)
  let k = ref 0 in
  for j = 0 to Array.length arr - 1 do
    if Array.length arr.(j) > 0 then begin
      live.(!k) <- j;
      incr k
    end
  done;
  n_live := !k;
  for i = 0 to total - 1 do
    (* Pick a non-exhausted trace uniformly. *)
    let slot = Rng.int rng !n_live in
    let j = live.(slot) in
    let tr = arr.(j) in
    out.(i) <- tr.(positions.(j));
    positions.(j) <- positions.(j) + 1;
    if positions.(j) >= Array.length tr then begin
      (* Exhausted: close the gap, preserving ascending order. *)
      for s = slot to !n_live - 2 do
        live.(s) <- live.(s + 1)
      done;
      decr n_live
    end
  done;
  out

(* Distinct packed keys in an {!Itbl}; the rare block [Block.pack]
   refuses is counted in a [Hashtbl] of records instead. *)
let working_set_size trace =
  let seen = Acfc_core.Itbl.create 1024 and wide = Hashtbl.create 1 in
  Array.iter
    (fun (b : Block.t) ->
      let key = Block.pack_ids ~file:b.file ~index:b.index in
      if key >= 0 then Acfc_core.Itbl.set seen key 0 else Hashtbl.replace wide b ())
    trace;
  Acfc_core.Itbl.length seen + Hashtbl.length wide

let pp_summary ppf trace =
  Format.fprintf ppf "%d references over %d blocks" (Array.length trace)
    (working_set_size trace)
