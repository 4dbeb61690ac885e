(* Re-executions of this binary with the race-root variable set are
   children of the cross-process store race test, not test runs. *)
let () =
  match Sys.getenv_opt Test_store.race_env with
  | Some root -> Test_store.race_child root
  | None -> ()

let () =
  Alcotest.run "acfc"
    (List.concat
       [
         Test_rng.suites;
         Test_equeue.suites;
         Test_ilist.suites;
         Test_ctab.suites;
         Test_engine.suites;
         Test_resource.suites;
         Test_ivar.suites;
         Test_disk.suites;
         Test_block.suites;
         Test_cache.suites;
         Test_equivalence.suites;
         Test_fs.suites;
         Test_replacement.suites;
         Test_policy_core.suites;
         Test_stats.suites;
         Test_workloads.suites;
         Test_scenario.suites;
         Test_wir.suites;
         Test_wirgen.suites;
         Test_experiments.suites;
         Test_advice.suites;
         Test_integration.suites;
         Test_edge_cases.suites;
         Test_recorder.suites;
         Test_obs.suites;
         Test_par.suites;
         Test_fleet.suites;
         Test_sched_queue.suites;
         Test_store.suites;
         Test_gate.suites;
         Test_monitor.suites;
         Test_listings.suites;
         Test_golden.suites;
         Test_canonical.suites;
       ])
