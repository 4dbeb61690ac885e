(* Cross-validation properties tying the kernel cache to the
   trace-driven policy simulator and to the paper's criteria. *)

open Acfc_core
open Tutil
module Policy_sim = Acfc_replacement.Policy_sim
module Cores = Acfc_policy.Cores

let p0 = pid 0

(* Random traces over a small block universe so evictions are common. *)
let trace_gen =
  QCheck2.Gen.(
    pair (int_range 1 12)
      (list_size (int_range 1 400) (pair (int_range 0 2) (int_range 0 30))))

let blocks_of refs = List.map (fun (f, i) -> Block.make ~file:f ~index:i) refs

(* The paper's criterion 1, mechanised: with no managers registered,
   LRU-SP must behave exactly like the original global-LRU kernel. *)
let lru_sp_equals_global_lru_when_oblivious =
  qcheck "no managers: LRU-SP == global LRU" ~count:200 trace_gen
    (fun (capacity, refs) ->
      let run alloc_policy =
        let c = Cache.create (config ~alloc_policy capacity) in
        List.map (fun b -> Cache.read c ~pid:p0 b) (blocks_of refs)
      in
      run Config.Lru_sp = run Config.Global_lru)

(* The Sec. 7 virtual-memory variant: with no managers, the Clock_sp
   kernel must agree, miss for miss, with the standalone second-chance
   CLOCK simulator. *)
let clock_sp_matches_policy_sim =
  qcheck "oblivious Clock-SP == trace-driven CLOCK" ~count:200 trace_gen
    (fun (capacity, refs) ->
      let trace = Array.of_list (blocks_of refs) in
      let c = Cache.create (config ~alloc_policy:Config.Clock_sp capacity) in
      Array.iter (fun b -> ignore (Cache.read c ~pid:p0 b)) trace;
      let reference = Policy_sim.run (module Cores.Clock) ~capacity trace in
      Cache.misses c = reference.Policy_sim.misses)

(* The kernel's global-LRU data path must agree, miss for miss, with the
   standalone LRU policy simulator. *)
let global_lru_matches_policy_sim =
  qcheck "global LRU == trace-driven LRU" ~count:200 trace_gen
    (fun (capacity, refs) ->
      let trace = Array.of_list (blocks_of refs) in
      let c = Cache.create (config ~alloc_policy:Config.Global_lru capacity) in
      Array.iter (fun b -> ignore (Cache.read c ~pid:p0 b)) trace;
      let reference = Policy_sim.run (module Cores.Lru) ~capacity trace in
      Cache.misses c = reference.Policy_sim.misses
      && Cache.hits c = reference.Policy_sim.hits)

(* A single manager running MRU over one level sees exactly the MRU
   policy, whatever candidates the kernel proposes: swapping makes the
   manager's will prevail without distortion. *)
let single_mru_manager_matches_policy_sim =
  qcheck "one MRU manager == trace-driven MRU" ~count:200 trace_gen
    (fun (capacity, refs) ->
      let trace = Array.of_list (blocks_of refs) in
      let check alloc_policy =
        let c = Cache.create (config ~alloc_policy capacity) in
        ok_exn (Cache.register_manager c p0);
        ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
        Array.iter (fun b -> ignore (Cache.read c ~pid:p0 b)) trace;
        let reference = Policy_sim.run (module Cores.Mru) ~capacity trace in
        Cache.misses c = reference.Policy_sim.misses
      in
      (* The decision is the manager's under all two-level variants,
         whatever global order proposes the candidate. *)
      check Config.Lru_sp && check Config.Lru_s && check Config.Alloc_lru
      && check Config.Clock_sp)

(* A manager that runs plain LRU always agrees with the kernel: its
   preferred victim is the global LRU block, so no overrule, no swap, no
   placeholder — and behaviour identical to the original kernel
   (criterion 3's "never worse", at its boundary). *)
let lru_manager_is_transparent =
  qcheck "an LRU manager never overrules" ~count:150 trace_gen
    (fun (capacity, refs) ->
      let trace = blocks_of refs in
      let c = Cache.create (config ~alloc_policy:Config.Lru_sp capacity) in
      ok_exn (Cache.register_manager c p0);
      List.iter (fun b -> ignore (Cache.read c ~pid:p0 b)) trace;
      let baseline = Cache.create (config ~alloc_policy:Config.Global_lru capacity) in
      List.iter (fun b -> ignore (Cache.read baseline ~pid:p0 b)) trace;
      Cache.overrule_count c = 0
      && Cache.misses c = Cache.misses baseline
      && Cache.lru_keys c = Cache.lru_keys baseline)

(* With a single manager, placeholders only redirect the kernel's
   candidate; the manager's decision — hence the miss sequence — is the
   same with and without them (LRU-S vs LRU-SP). Multi-process runs
   differ: that is Table 1. *)
let placeholders_neutral_for_single_manager =
  qcheck "LRU-S == LRU-SP for a single manager" ~count:150 trace_gen
    (fun (capacity, refs) ->
      let run alloc_policy =
        let c = Cache.create (config ~alloc_policy capacity) in
        ok_exn (Cache.register_manager c p0);
        ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
        List.iter (fun b -> ignore (Cache.read c ~pid:p0 b)) (blocks_of refs);
        Cache.misses c
      in
      run Config.Lru_s = run Config.Lru_sp)

(* Invariants hold under arbitrary interleavings of every operation. *)
type op =
  | Read of int * Block.t
  | Write of int * Block.t
  | Register of int
  | Unregister of int
  | Set_priority of int * int * int
  | Set_policy of int * int * bool
  | Set_temppri of int * int * int * int
  | Sync
  | Invalidate of int

let op_gen =
  let open QCheck2.Gen in
  let block = map2 (fun f i -> Block.make ~file:f ~index:i) (int_range 0 2) (int_range 0 25) in
  let who = int_range 0 2 in
  oneof
    [
      map2 (fun p b -> Read (p, b)) who block;
      map2 (fun p b -> Write (p, b)) who block;
      map (fun p -> Register p) who;
      map (fun p -> Unregister p) who;
      map3 (fun p f pr -> Set_priority (p, f, pr)) who (int_range 0 2) (int_range (-1) 2);
      map3 (fun p pr m -> Set_policy (p, pr, m)) who (int_range (-1) 2) bool;
      map3 (fun p f first -> Set_temppri (p, f, first, first + 3)) who (int_range 0 2)
        (int_range 0 20);
      return Sync;
      map (fun f -> Invalidate f) (int_range 0 2);
    ]

let invariants_under_chaos =
  qcheck "invariants hold under random op sequences" ~count:150
    QCheck2.Gen.(
      triple (int_range 1 10)
        (oneofl
           [ Config.Global_lru; Config.Alloc_lru; Config.Lru_s; Config.Lru_sp;
             Config.Clock_sp ])
        (list_size (int_range 1 250) op_gen))
    (fun (capacity, alloc_policy, ops) ->
      let c = Cache.create (config ~alloc_policy capacity) in
      List.iter
        (fun op ->
          (match op with
          | Read (p, b) -> ignore (Cache.read c ~pid:(pid p) b)
          | Write (p, b) -> ignore (Cache.write c ~pid:(pid p) b ~fetch:false)
          | Register p -> ignore (Cache.register_manager c (pid p))
          | Unregister p -> Cache.unregister_manager c (pid p)
          | Set_priority (p, f, pr) -> ignore (Cache.set_priority c (pid p) ~file:f ~prio:pr)
          | Set_policy (p, pr, mru) ->
            let policy = if mru then Policy.Mru else Policy.Lru in
            ignore (Cache.set_policy c (pid p) ~prio:pr policy)
          | Set_temppri (p, f, first, last) ->
            ignore (Cache.set_temppri c (pid p) ~file:f ~first ~last ~prio:(-1))
          | Sync -> ignore (Cache.sync c ())
          | Invalidate f -> ignore (Cache.invalidate_file c ~file:f));
          if Cache.length c > Cache.capacity c then failwith "over capacity";
          if
            Cache.placeholder_count c
            > (Cache.config c).Acfc_core.Config.max_placeholders
          then failwith "placeholders over limit")
        ops;
      Cache.check_invariants c;
      true)

(* Determinism: the same operation sequence gives identical statistics. *)
let deterministic =
  qcheck "cache is deterministic" ~count:50 trace_gen (fun (capacity, refs) ->
      let run () =
        let c = Cache.create (config capacity) in
        ok_exn (Cache.register_manager c p0);
        ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
        List.iter (fun b -> ignore (Cache.read c ~pid:p0 b)) (blocks_of refs);
        (Cache.hits c, Cache.misses c, Cache.lru_keys c)
      in
      run () = run ())

let suites =
  [
    ( "cache equivalences",
      [
        lru_sp_equals_global_lru_when_oblivious;
        global_lru_matches_policy_sim;
        clock_sp_matches_policy_sim;
        single_mru_manager_matches_policy_sim;
        lru_manager_is_transparent;
        placeholders_neutral_for_single_manager;
        invariants_under_chaos;
        deterministic;
      ] );
  ]
