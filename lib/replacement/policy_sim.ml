module Block = Acfc_core.Block
module Core = Acfc_policy.Policy_core

type result = {
  policy : string;
  capacity : int;
  references : int;
  hits : int;
  misses : int;
}

(* [id] is resident in the flag column [resident]. *)
let[@inline] resident_in resident id =
  id >= 0 && id < Bytes.length resident && Bytes.unsafe_get resident id <> '\000'

let run (module P : Core.CORE) ~capacity trace =
  if capacity <= 0 then invalid_arg "Policy_sim.run: capacity must be positive";
  let state = P.create ~capacity ~future:trace in
  (* The ground truth, indexed by the core's ids: '\001' while resident.
     A core hands out an id only to a block it remembers, so a hit is
     one lookup in its table and one cell here. *)
  let resident = ref (Bytes.make (capacity + 1) '\000') in
  let held = ref 0 and hits = ref 0 in
  for pos = 0 to Array.length trace - 1 do
    let key = Block.pack (Array.unsafe_get trace pos) in
    let id = P.find state key in
    if resident_in !resident id then begin
      incr hits;
      P.reference state ~pos id
    end
    else begin
      if !held >= capacity then begin
        let victim = P.victim state ~pos ~missing:id in
        if not (resident_in !resident victim) then
          failwith (Printf.sprintf "policy %s named id %d, which is not resident" P.name victim);
        Bytes.unsafe_set !resident victim '\000';
        P.evict state victim
      end
      else incr held;
      let id = P.admit state ~pos key in
      let n = Bytes.length !resident in
      if id >= n then begin
        let wider = Bytes.make (Stdlib.max (id + 1) (2 * n)) '\000' in
        Bytes.blit !resident 0 wider 0 n;
        resident := wider
      end;
      Bytes.set !resident id '\001'
    end
  done;
  let references = Array.length trace in
  { policy = P.name; capacity; references; hits = !hits; misses = references - !hits }

let miss_ratio r =
  if r.references = 0 then 0.0 else float_of_int r.misses /. float_of_int r.references

let pp_result ppf r =
  Format.fprintf ppf "%-8s cap=%-6d refs=%-8d misses=%-8d (%.1f%%)" r.policy r.capacity
    r.references r.misses (100.0 *. miss_ratio r)

module type POLICY = Core.CORE
