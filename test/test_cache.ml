open Acfc_core
open Tutil
module Trace = Acfc_obs.Trace

(* A backend that records its calls, for observing device traffic. It
   receives packed keys and logs their records. *)
let recording_backend () =
  let log = ref [] in
  let push tag key = log := (tag, Block.unpack key) :: !log in
  ( {
      Backend.read_block =
        (fun k ->
          push `Read k;
          true);
      write_block = (fun k -> push `Write k);
      evicted = (fun k -> push `Evict k);
    },
    fun () -> List.rev !log )

let reads log = List.filter_map (function `Read, k -> Some k | _ -> None) log

let writes log = List.filter_map (function `Write, k -> Some k | _ -> None) log

let p0 = pid 0

let p1 = pid 1

(* {2 Data path} *)

let hit_miss_accounting () =
  let c = Cache.create (config 4) in
  chk_bool "first access misses" true (Cache.read c ~pid:p0 (blk 0) = `Miss);
  chk_bool "second access hits" true (Cache.read c ~pid:p0 (blk 0) = `Hit);
  chk_int "hits" 1 (Cache.hits c);
  chk_int "misses" 1 (Cache.misses c);
  chk_int "pid hits" 1 (Cache.pid_hits c p0);
  chk_int "pid misses" 1 (Cache.pid_misses c p0);
  chk_int "other pid untouched" 0 (Cache.pid_hits c p1);
  chk_bool "contains" true (Cache.contains c (blk 0));
  chk_int "length" 1 (Cache.length c);
  chk_int "capacity" 4 (Cache.capacity c);
  Cache.reset_stats c;
  chk_int "reset hits" 0 (Cache.hits c);
  chk_bool "contents survive reset" true (Cache.contains c (blk 0))

let lru_eviction_order () =
  let c = Cache.create (config 3) in
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  (* Touch 0 so 1 becomes LRU. *)
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_bool "LRU victim evicted" false (Cache.contains c (blk 1));
  chk_bool "recently used kept" true (Cache.contains c (blk 0));
  chk_bool "lru order" true (Cache.lru_keys c = [ blk 3; blk 0; blk 2 ])

let capacity_never_exceeded () =
  let c = Cache.create (config 5) in
  for i = 0 to 99 do
    ignore (Cache.read c ~pid:p0 (blk i));
    chk_bool "length <= capacity" true (Cache.length c <= 5)
  done;
  Cache.check_invariants c

let dirty_writeback () =
  let backend, log = recording_backend () in
  let c = Cache.create ~backend (config 2) in
  ignore (Cache.write c ~pid:p0 (blk 0) ~fetch:false);
  chk_bool "dirty" true (Cache.is_dirty c (blk 0));
  ignore (Cache.write c ~pid:p0 (blk 1) ~fetch:false);
  ignore (Cache.read c ~pid:p0 (blk 2));
  (* Block 0 was LRU and dirty: must be written before eviction. *)
  chk_bool "victim written" true (writes (log ()) = [ blk 0 ]);
  chk_int "writeback counted" 1 (Cache.writebacks c);
  chk_bool "gone" false (Cache.contains c (blk 0))

let write_fetch_semantics () =
  let backend, log = recording_backend () in
  let c = Cache.create ~backend (config 4) in
  ignore (Cache.write c ~pid:p0 (blk 0) ~fetch:false);
  chk_bool "no fetch for full overwrite" true (reads (log ()) = []);
  ignore (Cache.write c ~pid:p0 (blk 1) ~fetch:true);
  chk_bool "read-modify-write fetches" true (reads (log ()) = [ blk 1 ]);
  (* Write hit never fetches. *)
  ignore (Cache.write c ~pid:p0 (blk 1) ~fetch:true);
  chk_bool "hit does not fetch" true (reads (log ()) = [ blk 1 ])

let sync_flushes_in_order () =
  let backend, log = recording_backend () in
  let c = Cache.create ~backend (config 8) in
  List.iter (fun i -> ignore (Cache.write c ~pid:p0 (blk i) ~fetch:false)) [ 3; 1; 2 ];
  ignore (Cache.write c ~pid:p0 (Block.make ~file:1 ~index:0) ~fetch:false);
  let written = Cache.sync c ~file:0 () in
  chk_int "only file 0 flushed" 3 written;
  chk_bool "address order" true (writes (log ()) = [ blk 1; blk 2; blk 3 ]);
  chk_bool "clean after sync" false (Cache.is_dirty c (blk 1));
  chk_int "other file still dirty" 1 (Cache.sync c ());
  chk_int "nothing left" 0 (Cache.sync c ())

let invalidate_drops_dirty () =
  let backend, log = recording_backend () in
  let c = Cache.create ~backend (config 8) in
  ignore (Cache.write c ~pid:p0 (blk 0) ~fetch:false);
  ignore (Cache.read c ~pid:p0 (Block.make ~file:1 ~index:0));
  let dropped = Cache.invalidate_file c ~file:0 in
  chk_int "dropped" 1 dropped;
  chk_bool "no write issued" true (writes (log ()) = []);
  chk_bool "other file kept" true (Cache.contains c (Block.make ~file:1 ~index:0));
  chk_int "evict callback fired" 1
    (List.length (List.filter (function `Evict, _ -> true | _ -> false) (log ())))

(* {2 Manager lifecycle and control calls} *)

let registration () =
  let c = Cache.create (config ~max_managers:1 8) in
  ok_exn (Cache.register_manager c p0);
  chk_bool "registered" true (Cache.is_manager c p0);
  chk_bool "duplicate" true (Cache.register_manager c p0 = Error Error.Already_registered);
  chk_bool "limit" true (Cache.register_manager c p1 = Error Error.Too_many_managers);
  Cache.unregister_manager c p0;
  chk_bool "unregistered" false (Cache.is_manager c p0);
  ok_exn (Cache.register_manager c p1)

let control_requires_registration () =
  let c = Cache.create (config 8) in
  chk_bool "set_priority" true
    (Cache.set_priority c p0 ~file:0 ~prio:1 = Error Error.Not_registered);
  chk_bool "get_priority" true
    (Cache.get_priority c p0 ~file:0 = Error Error.Not_registered);
  chk_bool "set_policy" true
    (Cache.set_policy c p0 ~prio:0 Policy.Mru = Error Error.Not_registered);
  chk_bool "set_temppri" true
    (Cache.set_temppri c p0 ~file:0 ~first:0 ~last:0 ~prio:1 = Error Error.Not_registered)

let priority_levels_and_eviction () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  (* File 1 is high priority; file 0 default. *)
  ok_exn (Cache.set_priority c p0 ~file:1 ~prio:1);
  chk_int "get_priority" 1 (ok_exn (Cache.get_priority c p0 ~file:1));
  ignore (Cache.read c ~pid:p0 (Block.make ~file:1 ~index:0));
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p0 (blk 1));
  (* Cache full. The high-priority block is global-LRU, hence the
     kernel's candidate — but the manager overrules with its lowest
     level: file 0's LRU block. *)
  ignore (Cache.read c ~pid:p0 (blk 2));
  chk_bool "high-priority survived" true (Cache.contains c (Block.make ~file:1 ~index:0));
  chk_bool "low-priority evicted" false (Cache.contains c (blk 0));
  chk_int "overruled once" 1 (Cache.overrule_count c);
  Cache.check_invariants c

let get_priority_value () =
  let c = Cache.create (config 4) in
  ok_exn (Cache.register_manager c p0);
  chk_bool "default 0" true (Cache.get_priority c p0 ~file:9 = Ok 0);
  ok_exn (Cache.set_priority c p0 ~file:9 ~prio:(-1));
  chk_bool "negative priority" true (Cache.get_priority c p0 ~file:9 = Ok (-1));
  ok_exn (Cache.set_priority c p0 ~file:9 ~prio:0);
  chk_bool "reset to default" true (Cache.get_priority c p0 ~file:9 = Ok 0)

let mru_policy_picks_most_recent () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  chk_bool "get_policy" true (Cache.get_policy c p0 ~prio:0 = Ok Policy.Mru);
  chk_bool "default policy elsewhere" true (Cache.get_policy c p0 ~prio:5 = Ok Policy.Lru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  (* MRU victim is block 2, the most recently used before the miss. *)
  chk_bool "MRU victim" false (Cache.contains c (blk 2));
  chk_bool "LRU block kept" true (Cache.contains c (blk 0))

let set_priority_moves_cached_blocks () =
  let c = Cache.create (config 8) in
  ok_exn (Cache.register_manager c p0);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  chk_int "level 0 holds all" 3 (List.length (Cache.level_blocks c p0 ~prio:0));
  ok_exn (Cache.set_priority c p0 ~file:0 ~prio:2);
  chk_int "level 0 empty" 0 (List.length (Cache.level_blocks c p0 ~prio:0));
  chk_int "level 2 holds all" 3 (List.length (Cache.level_blocks c p0 ~prio:2));
  Cache.check_invariants c

let replaced_later_placement () =
  let c = Cache.create (config 8) in
  ok_exn (Cache.register_manager c p0);
  (* Level 5 uses MRU: blocks moved into it go to the LRU end (replaced
     later under MRU = least recently used position). *)
  ok_exn (Cache.set_policy c p0 ~prio:5 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1 ];
  ignore (Cache.read c ~pid:p0 (Block.make ~file:1 ~index:9));
  ok_exn (Cache.set_priority c p0 ~file:1 ~prio:5);
  ok_exn (Cache.set_priority c p0 ~file:0 ~prio:5);
  (* level_blocks lists MRU end first; file 1 moved first, then file 0's
     blocks appended behind it at the LRU end. *)
  let level5 = Cache.level_blocks c p0 ~prio:5 in
  chk_int "all in level 5" 3 (List.length level5);
  chk_bool "file-1 block is at the MRU side" true
    (List.hd level5 = Block.make ~file:1 ~index:9);
  Cache.check_invariants c

let temppri_only_cached_range () =
  let c = Cache.create (config 8) in
  ok_exn (Cache.register_manager c p0);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  (* Range covers blocks 1..5, but only 1 and 2 are cached. *)
  ok_exn (Cache.set_temppri c p0 ~file:0 ~first:1 ~last:5 ~prio:(-1));
  chk_bool "level -1 holds the cached pair" true
    (List.sort Block.compare (Cache.level_blocks c p0 ~prio:(-1)) = [ blk 1; blk 2 ]);
  chk_bool "block 0 untouched" true (Cache.level_blocks c p0 ~prio:0 = [ blk 0 ]);
  (* Uncached block 4 is unaffected even when it arrives later. *)
  ignore (Cache.read c ~pid:p0 (blk 4));
  chk_bool "late arrival at long-term level" true
    (List.mem (blk 4) (Cache.level_blocks c p0 ~prio:0));
  Cache.check_invariants c

let temppri_expires_on_reference () =
  let c = Cache.create (config 8) in
  ok_exn (Cache.register_manager c p0);
  ignore (Cache.read c ~pid:p0 (blk 0));
  ok_exn (Cache.set_temppri c p0 ~file:0 ~first:0 ~last:0 ~prio:3);
  chk_bool "in temp level" true (Cache.level_blocks c p0 ~prio:3 = [ blk 0 ]);
  ignore (Cache.read c ~pid:p0 (blk 0));
  chk_bool "reverted on reference" true (Cache.level_blocks c p0 ~prio:3 = []);
  chk_bool "back at long-term level" true (List.mem (blk 0) (Cache.level_blocks c p0 ~prio:0));
  Cache.check_invariants c

let temppri_minus_one_evicted_first () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  (* Mark the most recently used block done-with; it must be the next
     victim even though it is globally MRU. *)
  ok_exn (Cache.set_temppri c p0 ~file:0 ~first:2 ~last:2 ~prio:(-1));
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_bool "done-with block evicted" false (Cache.contains c (blk 2));
  chk_bool "older blocks survive" true
    (Cache.contains c (blk 0) && Cache.contains c (blk 1))

let temppri_invalid_range () =
  let c = Cache.create (config 4) in
  ok_exn (Cache.register_manager c p0);
  chk_bool "reversed range" true
    (Cache.set_temppri c p0 ~file:0 ~first:5 ~last:4 ~prio:0 = Error Error.Invalid_range);
  chk_bool "negative start" true
    (Cache.set_temppri c p0 ~file:0 ~first:(-1) ~last:4 ~prio:0 = Error Error.Invalid_range)

let resource_limits () =
  let c = Cache.create (config ~max_levels:2 ~max_file_records:1 8) in
  ok_exn (Cache.register_manager c p0);
  (* Level 0 exists; one more level is allowed, the next is not. *)
  ok_exn (Cache.set_policy c p0 ~prio:1 Policy.Mru);
  chk_bool "level limit" true
    (Cache.set_policy c p0 ~prio:2 Policy.Mru = Error Error.Too_many_levels);
  ok_exn (Cache.set_priority c p0 ~file:7 ~prio:1);
  chk_bool "file record limit" true
    (Cache.set_priority c p0 ~file:8 ~prio:1 = Error Error.Too_many_file_records);
  (* Setting a recorded file back to 0 frees its record. *)
  ok_exn (Cache.set_priority c p0 ~file:7 ~prio:0);
  ok_exn (Cache.set_priority c p0 ~file:8 ~prio:1)

let unregister_releases_blocks () =
  let c = Cache.create (config 4) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2; 3 ];
  Cache.unregister_manager c p0;
  Cache.check_invariants c;
  (* Blocks behave as plain LRU now: victim is the oldest. *)
  ignore (Cache.read c ~pid:p0 (blk 4));
  chk_bool "plain LRU after unregister" false (Cache.contains c (blk 0));
  chk_int "no consultation" 0 (Cache.overrule_count c)

(* {2 Two-level mechanics: swapping and placeholders} *)

(* One manager with MRU over a filled cache: the kernel suggests the
   global-LRU block, the manager overrules with its MRU block. *)
let swap_positions () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  chk_bool "initial order" true (Cache.lru_keys c = [ blk 2; blk 1; blk 0 ]);
  ignore (Cache.read c ~pid:p0 (blk 3));
  (* Candidate was 0 (LRU), manager chose 2 (MRU): they swap, 2 is
     evicted, 0 now sits where 2 was; 3 enters at the front. *)
  chk_bool "victim is MRU block" false (Cache.contains c (blk 2));
  chk_bool "swap moved candidate up" true (Cache.lru_keys c = [ blk 3; blk 0; blk 1 ]);
  chk_int "placeholder created" 1 (Cache.placeholders_created c);
  chk_int "placeholder pending" 1 (Cache.placeholder_count c)

let placeholder_redirects_candidate () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  (* Placeholder: 2 -> 0. Missing 2 again makes 0 the candidate instead
     of the global LRU block (1). The manager still answers MRU = 3. *)
  ignore (Cache.read c ~pid:p0 (blk 2));
  chk_int "placeholder used" 1 (Cache.placeholders_used c);
  chk_int "mistake charged" 1 (Cache.manager_mistakes c p0);
  chk_bool "manager still evicts its MRU" false (Cache.contains c (blk 3));
  Cache.check_invariants c

let placeholder_dies_with_target () =
  let c = Cache.create ~backend:Backend.null (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_int "one placeholder" 1 (Cache.placeholder_count c);
  (* Evict the placeholder's target (block 0) by switching to LRU and
     missing: candidate selection uses the placeholder only for block 2;
     a miss on 4 takes the global LRU path. Manager still MRU though:
     force target eviction by unregistering first. *)
  Cache.unregister_manager c p0;
  ignore (Cache.read c ~pid:p0 (blk 4));
  (* Global LRU end was block 0 after the swap -- wait: order is
     [3; 0; 1], so LRU is 1. Evict until 0 leaves. *)
  ignore (Cache.read c ~pid:p0 (blk 5));
  chk_bool "target gone" false (Cache.contains c (blk 0));
  chk_int "placeholder died with target" 0 (Cache.placeholder_count c);
  Cache.check_invariants c

let placeholder_cap_recycles () =
  let c = Cache.create (config ~max_placeholders:2 4) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2; 3 ];
  for i = 4 to 8 do
    ignore (Cache.read c ~pid:p0 (blk i))
  done;
  chk_bool "bounded" true (Cache.placeholder_count c <= 2);
  Cache.check_invariants c

let zero_placeholders_disables () =
  let c = Cache.create (config ~max_placeholders:0 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2; 3 ];
  chk_int "none created" 0 (Cache.placeholders_created c)

(* {2 Allocation-policy variants} *)

let fill_with_mru_manager alloc_policy =
  let c = Cache.create (config ~alloc_policy 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  c

let global_lru_ignores_managers () =
  let c = fill_with_mru_manager Config.Global_lru in
  chk_bool "pure LRU victim" false (Cache.contains c (blk 0));
  chk_bool "MRU block kept" true (Cache.contains c (blk 2));
  chk_int "never consulted" 0 (Cache.manager_decisions c p0)

let alloc_lru_no_swap () =
  let c = fill_with_mru_manager Config.Alloc_lru in
  chk_bool "manager's choice evicted" false (Cache.contains c (blk 2));
  (* No swapping: candidate block 0 stays at the LRU end. *)
  chk_bool "no swap" true (Cache.lru_keys c = [ blk 3; blk 1; blk 0 ]);
  chk_int "no placeholders" 0 (Cache.placeholders_created c)

let lru_s_swaps_without_placeholders () =
  let c = fill_with_mru_manager Config.Lru_s in
  chk_bool "swapped" true (Cache.lru_keys c = [ blk 3; blk 0; blk 1 ]);
  chk_int "no placeholders" 0 (Cache.placeholders_created c)

let lru_sp_full () =
  let c = fill_with_mru_manager Config.Lru_sp in
  chk_bool "swapped" true (Cache.lru_keys c = [ blk 3; blk 0; blk 1 ]);
  chk_int "placeholder" 1 (Cache.placeholders_created c)

(* {2 Revocation} *)

let revocation_fires () =
  let revocation = { Config.min_decisions = 3; mistake_ratio = 0.5 } in
  let c = Cache.create (config ~revocation 3) in
  let revoked_event = ref false in
  watch c (function Trace.Manager_revoked _ -> revoked_event := true | _ -> ());
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  (* Cyclically re-missing MRU-evicted blocks racks up mistakes. *)
  for i = 3 to 20 do
    ignore (Cache.read c ~pid:p0 (blk (i mod 6)))
  done;
  chk_bool "revoked" true (Cache.manager_revoked c p0);
  chk_bool "event emitted" true !revoked_event;
  chk_bool "control calls now fail" true
    (Cache.set_policy c p0 ~prio:0 Policy.Lru = Error Error.Revoked);
  chk_bool "mistakes were counted" true (Cache.manager_mistakes c p0 >= 2);
  (* After revocation the kernel stops consulting: decisions freeze. *)
  let decisions = Cache.manager_decisions c p0 in
  ignore (Cache.read c ~pid:p0 (blk 100));
  chk_int "no further consultation" decisions (Cache.manager_decisions c p0);
  Cache.check_invariants c

let no_revocation_without_config () =
  let c = fill_with_mru_manager Config.Lru_sp in
  for i = 4 to 30 do
    ignore (Cache.read c ~pid:p0 (blk (i mod 6)))
  done;
  chk_bool "never revoked" false (Cache.manager_revoked c p0)

(* {2 Ownership transfer} *)

let ownership_follows_access () =
  let c = Cache.create (config 4) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.register_manager c p1);
  ignore (Cache.read c ~pid:p0 (blk 0));
  chk_bool "in p0's level" true (List.mem (blk 0) (Cache.level_blocks c p0 ~prio:0));
  ignore (Cache.read c ~pid:p1 (blk 0));
  chk_bool "left p0" false (List.mem (blk 0) (Cache.level_blocks c p0 ~prio:0));
  chk_bool "joined p1" true (List.mem (blk 0) (Cache.level_blocks c p1 ~prio:0));
  Cache.check_invariants c

let sticky_shared_files () =
  let cfg =
    Acfc_core.Config.make ~shared_files:Acfc_core.Config.Sticky ~capacity_blocks:4 ()
  in
  let c = Cache.create cfg in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.register_manager c p1);
  ignore (Cache.read c ~pid:p0 (blk 0));
  (* p1 references the shared block: under Sticky it stays with p0. *)
  ignore (Cache.read c ~pid:p1 (blk 0));
  chk_bool "stays with first manager" true
    (List.mem (blk 0) (Cache.level_blocks c p0 ~prio:0));
  chk_bool "not moved to p1" false (List.mem (blk 0) (Cache.level_blocks c p1 ~prio:0));
  (* Once the holder unregisters, the next reference re-homes it. *)
  Cache.unregister_manager c p0;
  ignore (Cache.read c ~pid:p1 (blk 0));
  chk_bool "re-homed after unregister" true
    (List.mem (blk 0) (Cache.level_blocks c p1 ~prio:0));
  Cache.check_invariants c

let manager_to_oblivious_transfer () =
  let c = Cache.create (config 4) in
  ok_exn (Cache.register_manager c p0);
  ignore (Cache.read c ~pid:p0 (blk 0));
  (* An unmanaged process touches the block: it leaves the manager. *)
  ignore (Cache.read c ~pid:p1 (blk 0));
  chk_bool "unmanaged now" true (Cache.level_blocks c p0 ~prio:0 = []);
  Cache.check_invariants c

(* {2 Upcall replacement handlers} *)

let upcall_directs_eviction () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  let seen_candidates = ref [] in
  ok_exn
    (Cache.set_chooser c p0
       (Some
          (fun ~candidate ~resident ->
            seen_candidates := candidate :: !seen_candidates;
            chk_int "full resident set offered" 3 (List.length resident);
            (* Always sacrifice block 1, wherever it sits. *)
            if List.exists (Block.equal (blk 1)) resident then Some (blk 1) else None)));
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_bool "handler's victim evicted" false (Cache.contains c (blk 1));
  chk_bool "kernel candidate survived (swap)" true (Cache.contains c (blk 0));
  chk_bool "candidate was global LRU" true (!seen_candidates = [ blk 0 ]);
  Cache.check_invariants c

let upcall_none_falls_back_to_pools () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  ok_exn (Cache.set_chooser c p0 (Some (fun ~candidate:_ ~resident:_ -> None)));
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_bool "pool MRU used on fallback" false (Cache.contains c (blk 2))

let upcall_invalid_falls_back () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn
    (Cache.set_chooser c p0 (Some (fun ~candidate:_ ~resident:_ -> Some (blk 999))));
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  (* Invalid answer: pool (default LRU) evicts the candidate itself. *)
  chk_bool "candidate evicted" false (Cache.contains c (blk 0));
  Cache.check_invariants c

let upcall_clear_restores_pools () =
  let c = Cache.create (config 3) in
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_chooser c p0 (Some (fun ~candidate:_ ~resident -> Some (List.hd resident))));
  ok_exn (Cache.set_chooser c p0 None);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  List.iter (fun i -> ignore (Cache.read c ~pid:p0 (blk i))) [ 0; 1; 2 ];
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_bool "pool policy back in force" false (Cache.contains c (blk 2))

(* An upcall handler implementing MRU by tracking recency externally
   must reproduce the pool MRU policy decision for decision. *)
let upcall_mru_equals_pool_mru () =
  let trace = List.init 60 (fun i -> blk ((i * 7) mod 13)) in
  let run_pool () =
    let c = Cache.create (config 5) in
    ok_exn (Cache.register_manager c p0);
    ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
    List.iter (fun b -> ignore (Cache.read c ~pid:p0 b)) trace;
    (Cache.misses c, List.sort Block.compare (Cache.lru_keys c))
  in
  let run_upcall () =
    let c = Cache.create (config 5) in
    ok_exn (Cache.register_manager c p0);
    let stamp = Hashtbl.create 16 in
    let clock = ref 0 in
    ok_exn
      (Cache.set_chooser c p0
         (Some
            (fun ~candidate:_ ~resident ->
              let most_recent =
                List.fold_left
                  (fun best b ->
                    let tb = Option.value (Hashtbl.find_opt stamp b) ~default:(-1) in
                    match best with
                    | Some (_, tbest) when tbest >= tb -> best
                    | Some _ | None -> Some (b, tb))
                  None resident
              in
              Option.map fst most_recent)));
    List.iter
      (fun b ->
        incr clock;
        Hashtbl.replace stamp b !clock;
        ignore (Cache.read c ~pid:p0 b))
      trace;
    (Cache.misses c, List.sort Block.compare (Cache.lru_keys c))
  in
  chk_bool "upcall MRU == pool MRU" true (run_pool () = run_upcall ())

(* The [syscall] records of the control calls, stated directly:
   [register] traces only on success and [unregister] only for a
   registered pid, while the setters trace before their checks, so a
   refused call still shows in the trace. *)
let control_calls_trace () =
  let seen = ref [] in
  let c = Cache.create (config ~max_managers:1 8) in
  watch c (function
    | Trace.Syscall { pid; op; detail } ->
      seen := String.trim (Printf.sprintf "%d %s %s" pid op detail) :: !seen
    | _ -> ());
  Cache.unregister_manager c p0;
  chk_bool "set_priority refused" true
    (Cache.set_priority c p0 ~file:0 ~prio:1 = Error Error.Not_registered);
  ok_exn (Cache.register_manager c p0);
  chk_bool "duplicate" true (Cache.register_manager c p0 = Error Error.Already_registered);
  chk_bool "limit" true (Cache.register_manager c p1 = Error Error.Too_many_managers);
  chk_bool "invalid range" true
    (Cache.set_temppri c p0 ~file:0 ~first:3 ~last:2 ~prio:1 = Error Error.Invalid_range);
  ok_exn (Cache.set_chooser c p0 None);
  Cache.unregister_manager c p0;
  Cache.unregister_manager c p0;
  check
    Alcotest.(list string)
    "sequence"
    [
      "0 set_priority file=0 prio=1";
      "0 register";
      "0 set_temppri file=0 first=3 last=2 prio=1";
      "0 set_chooser remove";
      "0 unregister";
    ]
    (List.rev !seen)

let upcall_requires_registration () =
  let c = Cache.create (config 3) in
  chk_bool "not registered" true
    (Cache.set_chooser c p0 (Some (fun ~candidate:_ ~resident:_ -> None))
    = Error Error.Not_registered)

(* {2 Events} *)

(* The records an LRU-SP cache traces, stated directly: a plain
   eviction, then an MRU manager overruling the kernel (a swap that
   keeps the candidate, a placeholder for the victim pointing at it),
   then a deleted file's blocks dropped in ascending order. *)
let trace_lifecycle () =
  let seen = ref [] in
  let c = Cache.create (config 2) in
  let show = function
    | Trace.Cache_hit { block; _ } -> Printf.sprintf "hit %d" block.index
    | Trace.Cache_miss { block; _ } -> Printf.sprintf "miss %d" block.index
    | Trace.Evict { victim; candidate; reason; _ } ->
      Printf.sprintf "evict %d (candidate %d, %s)" victim.index candidate.index reason
    | Trace.Swap { kept; victim } ->
      Printf.sprintf "swap keeps %d, evicts %d" kept.index victim.index
    | Trace.Placeholder_created { replaced; target; _ } ->
      Printf.sprintf "placeholder %d -> %d" replaced.index target.index
    | Trace.Syscall { op; detail; _ } -> String.trim (op ^ " " ^ detail)
    | ev -> Trace.kind ev
  in
  watch c (fun ev -> seen := show ev :: !seen);
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.read c ~pid:p0 (blk 0));
  ignore (Cache.write c ~pid:p0 (blk 1) ~fetch:false);
  ignore (Cache.read c ~pid:p0 (blk 2));
  ok_exn (Cache.register_manager c p0);
  ok_exn (Cache.set_policy c p0 ~prio:0 Policy.Mru);
  ignore (Cache.read c ~pid:p0 (blk 1));
  ignore (Cache.read c ~pid:p0 (blk 2));
  ignore (Cache.read c ~pid:p0 (blk 3));
  chk_int "dropped" 2 (Cache.invalidate_file c ~file:0);
  check
    Alcotest.(list string)
    "sequence"
    [
      "miss 0";
      "hit 0";
      "miss 1";
      "miss 2";
      "evict 0 (candidate 0, capacity)";
      "register";
      "set_policy prio=0 policy=MRU";
      "hit 1";
      "hit 2";
      "miss 3";
      "swap keeps 1, evicts 2";
      "placeholder 2 -> 1";
      "evict 2 (candidate 1, capacity)";
      "evict 1 (candidate 1, invalidate)";
      "evict 3 (candidate 3, invalidate)";
    ]
    (List.rev !seen)

let suites =
  [
    ( "cache: data path",
      [
        case "hit/miss accounting" hit_miss_accounting;
        case "LRU eviction order" lru_eviction_order;
        case "capacity bound" capacity_never_exceeded;
        case "dirty write-back" dirty_writeback;
        case "write fetch semantics" write_fetch_semantics;
        case "sync order and scope" sync_flushes_in_order;
        case "invalidate drops dirty" invalidate_drops_dirty;
        case "trace lifecycle" trace_lifecycle;
      ] );
    ( "cache: control interface",
      [
        case "registration and limits" registration;
        case "control requires registration" control_requires_registration;
        case "control calls trace" control_calls_trace;
        case "priorities steer eviction" priority_levels_and_eviction;
        case "get_priority values" get_priority_value;
        case "MRU policy" mru_policy_picks_most_recent;
        case "set_priority moves blocks" set_priority_moves_cached_blocks;
        case "replaced-later placement" replaced_later_placement;
        case "temppri cached range only" temppri_only_cached_range;
        case "temppri expires on reference" temppri_expires_on_reference;
        case "done-with evicted first" temppri_minus_one_evicted_first;
        case "temppri invalid range" temppri_invalid_range;
        case "kernel resource limits" resource_limits;
        case "unregister releases blocks" unregister_releases_blocks;
      ] );
    ( "cache: LRU-SP mechanics",
      [
        case "swapping positions" swap_positions;
        case "placeholder redirects candidate" placeholder_redirects_candidate;
        case "placeholder dies with target" placeholder_dies_with_target;
        case "placeholder cap recycles" placeholder_cap_recycles;
        case "zero placeholders disables" zero_placeholders_disables;
        case "global-lru ignores managers" global_lru_ignores_managers;
        case "alloc-lru: no swap" alloc_lru_no_swap;
        case "lru-s: swap only" lru_s_swaps_without_placeholders;
        case "lru-sp: swap + placeholder" lru_sp_full;
        case "upcall directs eviction" upcall_directs_eviction;
        case "upcall None falls back" upcall_none_falls_back_to_pools;
        case "upcall invalid falls back" upcall_invalid_falls_back;
        case "upcall cleared" upcall_clear_restores_pools;
        case "upcall MRU == pool MRU" upcall_mru_equals_pool_mru;
        case "upcall needs registration" upcall_requires_registration;
        case "revocation fires" revocation_fires;
        case "no revocation by default" no_revocation_without_config;
        case "ownership follows access" ownership_follows_access;
        case "sticky shared files" sticky_shared_files;
        case "manager-to-oblivious transfer" manager_to_oblivious_transfer;
      ] );
  ]
