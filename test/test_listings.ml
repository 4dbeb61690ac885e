(* CLI listing order: [workload list], [policy list] and
   [report --list] print in sorted name order so their output is stable
   under registry refactors (CI derives its smoke loops from these).
   The tests pin both the sorting contract and the current names, so a
   new application/policy/experiment shows up here deliberately. *)

open Tutil

let sorted = List.sort String.compare

let chk_sorted what names =
  check Alcotest.(list string) (what ^ " listed in sorted order") (sorted names) names

let test_workload_listing () =
  let names = sorted Acfc_scenario.Catalog.app_names in
  chk_sorted "applications" names;
  check
    Alcotest.(list string)
    "the eight catalog applications"
    [ "cs1"; "cs2"; "cs3"; "din"; "gli"; "ldk"; "pjn"; "sort" ]
    names

let test_policy_listing () =
  let module R = Acfc_policy.Registry in
  let names = sorted (List.map R.name R.all) in
  chk_sorted "policies" names;
  check
    Alcotest.(list string)
    "the unified policy registry"
    [
      "2Q"; "ARC"; "AWRP"; "CLOCK"; "FIFO"; "LRU"; "LRU-2"; "MRU"; "OPT";
      "PERCEPTRON"; "RAND";
    ]
    names

(* What [report --list] prints, in order; test_scenario checks the
   experiment table against it too. *)
let experiment_names =
  [
    "ablations"; "criteria"; "fig4"; "fig5"; "fig6"; "table1"; "table2";
    "table3"; "table4"; "table5"; "table6";
  ]

let test_experiment_listing () =
  let names =
    sorted (List.map (fun a -> a.Acfc_experiments.Report.name) Acfc_experiments.Report.artifacts)
  in
  chk_sorted "experiments" names;
  check Alcotest.(list string) "the paper's artifacts" experiment_names names

let suites =
  [
    ( "listings",
      [
        case "workload list is sorted and complete" test_workload_listing;
        case "policy list is sorted and complete" test_policy_listing;
        case "report --list is sorted and complete" test_experiment_listing;
      ] );
  ]
