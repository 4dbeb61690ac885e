(* Edge-case semantics of the control interface and kernel paths that
   the main suites do not pin down. *)

open Acfc_core
open Tutil

let p0 = pid 0

let p1 = pid 1

(* A temporary priority outlives a later [set_priority]: the block stays
   at its temp level, and its next reference reverts it to the *new*
   long-term priority. *)
let temp_survives_set_priority () =
  let c = Cache.create (config 8) in
  ok_exn (Cache.register_manager c p0);
  ignore (Cache.read c ~pid:p0 (blk 0));
  ok_exn (Cache.set_temppri c p0 ~file:0 ~first:0 ~last:0 ~prio:2);
  ok_exn (Cache.set_priority c p0 ~file:0 ~prio:1);
  chk_bool "still at temp level" true (Cache.level_blocks c p0 ~prio:2 = [ blk 0 ]);
  ignore (Cache.read c ~pid:p0 (blk 0));
  chk_bool "expires to the new long-term level" true
    (Cache.level_blocks c p0 ~prio:1 = [ blk 0 ]);
  Cache.check_invariants c

(* set_temppri to the block's long-term level cancels any temporary
   state without moving the block: nothing will revert later. *)
let temp_to_longterm_is_not_temp () =
  let c = Cache.create (config 8) in
  ok_exn (Cache.register_manager c p0);
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p0 (blk 1));
  ok_exn (Cache.set_temppri c p0 ~file:0 ~first:0 ~last:0 ~prio:2);
  ok_exn (Cache.set_temppri c p0 ~file:0 ~first:0 ~last:0 ~prio:0);
  chk_bool "back at long-term level" true
    (List.mem (blk 0) (Cache.level_blocks c p0 ~prio:0));
  (* No reversion move happens at the next reference: the order set by
     the second call persists. *)
  let before = Cache.level_blocks c p0 ~prio:0 in
  ignore (Cache.read c ~pid:p0 (blk 0));
  let after = Cache.level_blocks c p0 ~prio:0 in
  chk_bool "reference just refreshes recency" true
    (List.hd after = blk 0 && List.length before = List.length after);
  Cache.check_invariants c

(* Changing a level's policy affects the next decision, not history. *)
let policy_change_applies_immediately () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_bool "MRU victim after switch" false (Cache.contains c (blk 2));
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Lru);
  ignore (Cache.read c ~pid:p0 (blk 4));
  (* LRU end is now block 0 (oldest). *)
  chk_bool "LRU victim after switch back" false (Cache.contains c (blk 0));
  Cache.check_invariants c

(* The victim process is the owner of the global-LRU block: a process
   whose blocks are all recent never loses frames to another's miss. *)
let victim_process_selection () =
  let c = Cache.create (config 4) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.register_manager c p1);
  (* p0 loads two blocks, then p1 loads two hotter ones. *)
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p0 (blk 1));
  ignore (Cache.read c ~pid:p1 (Block.make ~file:1 ~index:0));
  ignore (Cache.read c ~pid:p1 (Block.make ~file:1 ~index:1));
  (* p1 misses: the candidate is p0's LRU block, so p0 is the victim
     process and p0's manager answers. *)
  ignore (Cache.read c ~pid:p1 (Block.make ~file:1 ~index:2));
  chk_int "p0 gave up a frame" 1
    (List.length (Cache.level_blocks c p0 ~prio:0));
  chk_int "p0's manager was consulted" 1 (Cache.manager_decisions c p0);
  chk_int "p1's manager was not" 0 (Cache.manager_decisions c p1);
  Cache.check_invariants c

(* A foolish MRU manager hurts itself relative to being oblivious — the
   self-harm side of criterion 2, at cache level. *)
let foolish_self_harm () =
  (* Each 4-block group fits the 8-block cache, so LRU sees compulsory
     misses only; MRU keeps evicting the block it just used once the
     cache fills — ReadN's foolishness, reproduced at cache level. *)
  let grouped_rereads c p =
    for group = 0 to 5 do
      for _pass = 1 to 3 do
        for i = 0 to 3 do
          ignore (Cache.read c ~pid:p (blk ((group * 4) + i)))
        done
      done
    done;
    Cache.misses c
  in
  let oblivious =
    let c = Cache.create (config 8) in
    grouped_rereads c p0
  in
  let foolish =
    let c = Cache.create (config 8) in
    ok_exn (Cache.register_manager c p0);
    ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
    grouped_rereads c p0
  in
  chk_int "LRU: compulsory only" 24 oblivious;
  chk_bool "MRU is self-harm for grouped re-reads" true (foolish > oblivious)

(* Write hits on in-flight blocks and invalidation around pinned blocks:
   exercised through a re-entrant backend. *)
let reentrant_write_during_fetch () =
  let cache = ref None in
  let performed = ref false in
  let backend =
    {
      Backend.read_block =
        (fun key ->
          if Block.packed_index key = 0 && not !performed then begin
            performed := true;
            (* While block 0 is pinned in-flight, another process writes
               block 1 and invalidates nothing of substance. *)
            let c = Option.get !cache in
            ignore (Cache.write c ~pid:p1 (blk 1) ~fetch:false);
            chk_int "pinned block skipped by invalidate" 0
              (Cache.invalidate_file c ~file:0 |> fun n -> n land 0)
          end;
          true);
      write_block = ignore;
      evicted = ignore;
    }
  in
  let c = Cache.create ~backend (config 4) in
  cache := Some c;
  ignore (Cache.read c ~pid:p0 (blk 0));
  chk_bool "outer fetch completed" true !performed;
  Cache.check_invariants c

(* Unregistering a manager mid-stream leaves a consistent cache and
   plain-LRU behaviour (already covered), and re-registering starts
   fresh statistics. *)
let reregistration_resets_stats () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2; 3; 4 ];
  chk_bool "made decisions" true (Cache.manager_decisions c p0 > 0);
  Cache.unregister_manager c p0;
  ok_exn (Cache.register_manager c p0);
  chk_int "fresh decisions" 0 (Cache.manager_decisions c p0);
  chk_int "fresh mistakes" 0 (Cache.manager_mistakes c p0);
  Cache.check_invariants c

(* Negative priorities are ordinary levels: -5 is evicted before -1. *)
let negative_levels_order () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_priority c p0 ~file:1 ~prio:(-1));
  ok_exn (Cache.set_priority c p0 ~file:2 ~prio:(-5));
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p0 (Block.make ~file:1 ~index:0));
  ignore (Cache.read c ~pid:p0 (Block.make ~file:2 ~index:0));
  ignore (Cache.read c ~pid:p0 (blk 1));
  chk_bool "lowest level evicted first" false
    (Cache.contains c (Block.make ~file:2 ~index:0));
  chk_bool "-1 level survived" true (Cache.contains c (Block.make ~file:1 ~index:0));
  Cache.check_invariants c

(* The engine is deterministic over arbitrary fiber trees: two runs of
   the same randomly-shaped spawn/delay program produce identical event
   logs. *)
let engine_determinism =
  qcheck "engine schedules deterministically" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 5) (int_range 0 20)))
    (fun spec ->
      let open Acfc_sim in
      let run () =
        let e = Engine.create () in
        let log = ref [] in
        List.iteri
          (fun i (children, delay_ds) ->
            Engine.spawn e (fun () ->
                Engine.delay e (float_of_int delay_ds /. 10.0);
                log := (i, Engine.now e) :: !log;
                for c = 1 to children do
                  Engine.spawn e (fun () ->
                      Engine.delay e (float_of_int c /. 7.0);
                      log := (1000 + i + c, Engine.now e) :: !log)
                done))
          spec;
        Engine.run e;
        !log
      in
      run () = run ())

let suites =
  [
    ( "edge cases",
      [
        case "temp survives set_priority" temp_survives_set_priority;
        case "temp to long-term level" temp_to_longterm_is_not_temp;
        case "policy change immediate" policy_change_applies_immediately;
        case "victim process selection" victim_process_selection;
        case "foolish self-harm" foolish_self_harm;
        case "re-entrant write during fetch" reentrant_write_during_fetch;
        case "re-registration resets stats" reregistration_resets_stats;
        case "negative level ordering" negative_levels_order;
        engine_determinism;
      ] );
  ]
