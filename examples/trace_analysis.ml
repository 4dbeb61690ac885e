(* Trace-driven policy analysis: record a live run, replay it offline.

   This is the methodology of the companion simulation paper: capture
   the demand reference stream of a real execution, then ask — for any
   cache size — what every replacement policy, including Belady's
   offline OPT, would have done with it.

   The punchline: dinero's MRU strategy equals OPT on its own trace.

   Run with:  dune exec examples/trace_analysis.exe
*)

module Config = Acfc_core.Config
module Runner = Acfc_workload.Runner
module Scenario = Acfc_scenario.Scenario
module Recorder = Acfc_replacement.Recorder
module Refstream = Acfc_replacement.Refstream
module Policy_sim = Acfc_replacement.Policy_sim
module Registry = Acfc_policy.Registry
module Cores = Acfc_policy.Cores

let () =
  (* Record din's reference stream from a live LRU-SP run. *)
  let recorder = Recorder.create () in
  let result =
    Scenario.run
      ~tracer:(Recorder.tracer recorder)
      (Scenario.make ~cache_blocks:819 ~alloc_policy:Config.Lru_sp
         [ Scenario.workload ~smart:true "din" ])
  in
  let live = (List.hd result.Runner.apps).Runner.block_ios in
  let trace = Refstream.demand (Recorder.stream recorder) in
  Format.printf "recorded %d demand references (%d with read-ahead)@."
    (Array.length trace) (Recorder.length recorder);
  Format.printf "live din under LRU-SP with its MRU strategy: %d misses@.@." live;
  Format.printf "offline replay at the same 819-block cache:@.";
  List.iter
    (fun policy ->
      let r = Policy_sim.run policy ~capacity:819 trace in
      Format.printf "  %a@." Policy_sim.pp_result r)
    Registry.all;
  let opt = Policy_sim.run (module Cores.Opt) ~capacity:819 trace in
  Format.printf "@.application policy vs offline optimum: %d vs %d misses%s@." live
    opt.Policy_sim.misses
    (if live = opt.Policy_sim.misses then " — the MRU strategy IS optimal here"
     else "")
