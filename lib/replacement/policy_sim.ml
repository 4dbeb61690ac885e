module Block = Acfc_core.Block
module Itbl = Acfc_core.Itbl

module type POLICY = sig
  type t

  val name : string

  val init : capacity:int -> Trace.t -> t

  val hit : t -> pos:int -> Block.t -> unit

  val choose_victim : t -> pos:int -> missing:Block.t -> Block.t

  val inserted : t -> pos:int -> Block.t -> unit

  val evicted : t -> Block.t -> unit
end

type result = {
  policy : string;
  capacity : int;
  references : int;
  hits : int;
  misses : int;
}

let run (module P : POLICY) ~capacity trace =
  if capacity <= 0 then invalid_arg "Policy_sim.run: capacity must be positive";
  let state = P.init ~capacity trace in
  let resident = Itbl.create capacity in (* Block.pack -> 0 *)
  let hits = ref 0 and misses = ref 0 in
  Array.iteri
    (fun pos block ->
      let key = Block.pack block in
      if Itbl.mem resident key then begin
        incr hits;
        P.hit state ~pos block
      end
      else begin
        incr misses;
        if Itbl.length resident >= capacity then begin
          let victim = P.choose_victim state ~pos ~missing:block in
          let vkey = Block.pack victim in
          if not (Itbl.mem resident vkey) then
            failwith
              (Format.asprintf "policy %s evicted non-resident %a" P.name Block.pp
                 victim);
          Itbl.remove resident vkey;
          P.evicted state victim
        end;
        Itbl.set resident key 0;
        P.inserted state ~pos block
      end)
    trace;
  {
    policy = P.name;
    capacity;
    references = Array.length trace;
    hits = !hits;
    misses = !misses;
  }

let miss_ratio r =
  if r.references = 0 then 0.0 else float_of_int r.misses /. float_of_int r.references

let pp_result ppf r =
  Format.fprintf ppf "%-8s cap=%-6d refs=%-8d misses=%-8d (%.1f%%)" r.policy r.capacity
    r.references r.misses (100.0 *. miss_ratio r)
