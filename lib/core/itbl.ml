(* Open-addressing int -> int hash table: the cache's block table
   (packed block id -> slot) on the hot path.

   Keys are non-negative ints (packed block ids from [Block.pack]);
   values are non-negative ints (table slots). Linear probing over a
   power-of-two array with backward-shift deletion: a remove pulls the
   rest of its probe run back over the hole, so the table never holds
   a tombstone, [find] stops at the first empty slot, and a table whose
   live count stays put never rehashes however much it churns. [find]
   allocates nothing and returns [-1] for absence so the hit path never
   touches the GC. The property tests in [test/test_ctab.ml] replay
   random op sequences against a stdlib [Hashtbl] model. *)

let empty_key = -1

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int; (* Array.length keys - 1 *)
  mutable size : int; (* live bindings *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create n =
  let cap = pow2 (max 8 (n * 2)) 8 in
  { keys = Array.make cap empty_key; vals = Array.make cap 0; mask = cap - 1; size = 0 }

let length t = t.size

let capacity t = t.mask + 1

(* Fibonacci multiplicative hash, masked to the table. A packed block
   id keeps its file id above bit 32, and the low bits of a product
   depend only on the low bits of its factors: masking [key * C] alone
   would give (f, i) and (f', i) one home slot in every table below
   2^32 slots. So the file id is first added into the low bits, scaled
   by an odd constant (2^60 / phi), which offsets each file's keys by
   an unrelated amount. Within a file, consecutive indices keep the
   even spacing of the plain product, and file 0 is offset by zero, so
   its keys keep their home slots exactly. (An xor-fold after the
   multiply would move them too.) [C] is 2^62 / phi, odd. The product
   [(key + f * M) * C] is computed distributed, as
   [key * C + f * (M * C)], so the two multiplies do not wait on each
   other; [M * C] folds to a constant. The hash must stay inlined into
   the probe loops: a call costs more than the hash itself. *)
let file_mult = 0x9E3779B97F4A7C1 * 0x2545F4914F6CDD1D

let[@inline] hash t key =
  ((key * 0x2545F4914F6CDD1D) + ((key lsr 32) * file_mult)) land t.mask

let find t key =
  let mask = t.mask in
  let keys = t.keys in
  let i = ref (hash t key) in
  let res = ref (-3) in
  while !res = -3 do
    let k = keys.(!i) in
    if k = key then res := t.vals.(!i)
    else if k = empty_key then res := -1
    else i := (!i + 1) land mask
  done;
  !res

let mem t key = find t key >= 0

let rehash t cap =
  let okeys = t.keys and ovals = t.vals in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  let mask = t.mask in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = ref (hash t k) in
        while t.keys.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        t.keys.(!j) <- k;
        t.vals.(!j) <- ovals.(i)
      end)
    okeys

let set t key v =
  let mask = t.mask in
  let keys = t.keys in
  let i = ref (hash t key) in
  let stop = ref false in
  while not !stop do
    let k = keys.(!i) in
    if k = key then begin
      t.vals.(!i) <- v;
      stop := true
    end
    else if k = empty_key then begin
      keys.(!i) <- key;
      t.vals.(!i) <- v;
      t.size <- t.size + 1;
      stop := true;
      (* Load factor capped at 3/4. Rehash to 4x the live count, which
         leaves the grown table at most 1/4 full. *)
      if t.size * 4 > (mask + 1) * 3 then rehash t (pow2 (max 8 (t.size * 4)) 8)
    end
    else i := (!i + 1) land mask
  done

(* Backward-shift deletion. The slot after the hole holds a key whose
   probe run may pass through the hole; each later key of the run moves
   back into the hole exactly when its home slot is at or before the
   hole (cyclically), i.e. when its distance from home reaches back over
   the hole. The run ends at the first empty slot, which the last hole
   becomes. *)
let remove t key =
  let mask = t.mask in
  let keys = t.keys and vals = t.vals in
  let i = ref (hash t key) in
  while keys.(!i) <> key && keys.(!i) <> empty_key do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = key then begin
    t.size <- t.size - 1;
    let hole = ref !i in
    let j = ref ((!i + 1) land mask) in
    while keys.(!j) <> empty_key do
      let k = keys.(!j) in
      if (!j - hash t k) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- k;
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty_key
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.size <- 0

(* Order is probe-layout order — callers must not depend on it. *)
let iter f t =
  Array.iteri (fun i k -> if k >= 0 then f k t.vals.(i)) t.keys

(* Slots [find] visits to reach [key] from its home slot, counting
   both ends. *)
let probe_length t key =
  let rec go i n = if t.keys.(i) = key then n else go ((i + 1) land t.mask) (n + 1) in
  go (hash t key) 1

let max_probe t =
  let m = ref 0 in
  Array.iter (fun k -> if k >= 0 then m := max !m (probe_length t k)) t.keys;
  !m
