type id = Acfc_core.Block.file

type t = {
  id : id;
  name : string;
  mutable size_bytes : int;
  reserve_blocks : int;
  start_block : int;
  disk : Acfc_disk.Disk.t;
  owner : Acfc_core.Pid.t option;
  mutable unlinked : bool;
  mutable seq_cursor : int;  (* last block index read, for read-ahead *)
  mutable readahead_enabled : bool;
}

let block_bytes = Acfc_disk.Params.block_bytes

let id t = t.id

let name t = t.name

let size_bytes t = t.size_bytes

let size_blocks t = (t.size_bytes + block_bytes - 1) / block_bytes

let block_of_offset ~byte = byte / block_bytes

let out_of_range t index =
  invalid_arg
    (Printf.sprintf "File.packed_key: block %d of file %d is out of the packable range" index
       t.id)

let packed_key t ~index =
  let p = Acfc_core.Block.pack_ids ~file:t.id ~index in
  if p < 0 then out_of_range t index;
  p

let disk_addr t ~index = t.start_block + index

let pp ppf t =
  Format.fprintf ppf "%s(id=%d, %dB @%s+%d)" t.name t.id t.size_bytes
    (Acfc_disk.Disk.params t.disk).Acfc_disk.Params.name t.start_block
