type file = int

type t = { file : file; index : int }

let make ~file ~index =
  if file < 0 then invalid_arg "Block.make: negative file id";
  if index < 0 then invalid_arg "Block.make: negative block index";
  { file; index }

let file t = t.file

let index t = t.index

let equal a b = a.file = b.file && a.index = b.index

let compare a b =
  match Int.compare a.file b.file with 0 -> Int.compare a.index b.index | c -> c

let hash t = (t.file * 1000003) + t.index

(* A constant record literal at top level is static data, never in the
   minor heap. *)
let filler = { file = 0; index = 0 }

(* Packed form for the columnar core: one non-negative int, ordered the
   same way as [compare]. 32 bits of index bound files at 2^32 blocks
   (32 TB at 8 KB) and file ids at 2^30 — far beyond any simulation. *)
let max_packed_index = (1 lsl 32) - 1

let max_packed_file = (1 lsl 30) - 1

let pack t =
  if t.index > max_packed_index || t.file > max_packed_file then
    invalid_arg "Block.pack: id out of packable range";
  (t.file lsl 32) lor t.index

let pack_ids ~file ~index =
  if file < 0 || index < 0 || index > max_packed_index || file > max_packed_file then -1
  else (file lsl 32) lor index

let unpack p = { file = p lsr 32; index = p land max_packed_index }

let packed_file p = p lsr 32

let packed_index p = p land max_packed_index

let pp ppf t = Format.fprintf ppf "f%d[%d]" t.file t.index
