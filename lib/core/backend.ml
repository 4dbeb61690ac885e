type t = {
  read_block : int -> bool;
  write_block : int -> unit;
  evicted : int -> unit;
}

let null = { read_block = (fun _ -> true); write_block = ignore; evicted = ignore }
