(* The hash the polymorphic [Hashtbl.hash] computes for the [Block.t]
   record a packed block id names, recomputed from the id. The ACM
   orders a manager's block set by it: a stdlib [(Block.t, _) Hashtbl]
   puts a key in bucket [hash land (buckets - 1)], so the predecessor's
   fold order is reproducible from packed ids alone.

   [hash] is the runtime's [caml_hash] (MurmurHash3 rounds, seed 0)
   specialised to a two-field, tag-0 block: the header with its colour
   bits cleared ([2 lsl 10]) is mixed first, then each field as its
   tagged machine word, then the final avalanche, masked to 30 bits.
   All arithmetic is on 32-bit unsigned values held in OCaml ints: a
   product of two such values wraps modulo 2^63, which leaves its low
   32 bits exact. *)

let m32 = 0xFFFF_FFFF

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let[@inline] mix h d =
  let d = d * 0xcc9e2d51 land m32 in
  let d = rotl32 d 15 in
  let d = d * 0x1b873593 land m32 in
  let h = rotl32 (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land m32

(* A non-negative int field as [caml_hash_mix_intnat] sees it: the
   tagged word [2n + 1], its high half folded into its low half. *)
let[@inline] mix_field h n =
  let v = (2 * n) + 1 in
  mix h ((v lsr 32) lxor v land m32)

let after_header = mix 0 (2 lsl 10)

let hash p =
  let h = mix_field (mix_field after_header (p lsr 32)) (p land m32) in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land m32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land m32 in
  let h = h lxor (h lsr 16) in
  h land 0x3FFF_FFFF
