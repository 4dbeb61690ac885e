type t = {
  read_block : int -> unit;
  write_block : int -> unit;
  evicted : int -> unit;
}

let null = { read_block = ignore; write_block = ignore; evicted = ignore }
