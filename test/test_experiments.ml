open Acfc_experiments
module Catalog = Acfc_scenario.Catalog
module Scenario = Acfc_scenario.Scenario
module Runner = Acfc_workload.Runner
module Summary = Acfc_stats.Summary
open Tutil

let catalog_finds_all () =
  List.iter
    (fun (name, _, disk) ->
      let _, d = Catalog.find name in
      chk_int (name ^ " disk") disk d)
    Catalog.apps;
  chk_int "eight applications" 8 (List.length Catalog.apps);
  Alcotest.check_raises "unknown app" Not_found (fun () ->
      ignore (Catalog.find "emacs"))

let combos_resolve () =
  List.iter
    (fun combo -> List.iter (fun name -> ignore (Catalog.find name)) combo)
    (Paper_data.fig5_combos @ Paper_data.fig6_combos);
  chk_int "nine fig5 combos" 9 (List.length Paper_data.fig5_combos);
  chk_int "five fig6 combos" 5 (List.length Paper_data.fig6_combos);
  chk_bool "combo naming" true (Paper_data.combo_name [ "a"; "b" ] = "a+b")

let paper_data_lookup () =
  chk_bool "din elapsed at 6.4" true
    (Paper_data.lookup_elapsed "din" ~mb:6.4 = Some (117., 106.));
  chk_bool "sort ios at 16" true
    (Paper_data.lookup_ios "sort" ~mb:16.0 = Some (14520., 9460.));
  chk_bool "unknown app" true (Paper_data.lookup_ios "emacs" ~mb:6.4 = None);
  chk_bool "unknown size" true (Paper_data.lookup_ios "din" ~mb:7.0 = None);
  chk_int "four sizes" 4 (List.length Paper_data.cache_sizes_mb);
  List.iter
    (fun (name, orig, sp) ->
      chk_int (name ^ " has 4 columns") 4 (Array.length orig);
      chk_int (name ^ " has 4 sp columns") 4 (Array.length sp))
    Paper_data.table6

let measure_helpers () =
  let cell n =
    Measure.cell (fun seed ->
        Scenario.make ~seed ~cache_blocks:64 [ Scenario.workload (Printf.sprintf "read%d" n) ])
  in
  let grid = Measure.all [ cell 50; cell 90 ] in
  List.iter
    (fun runs ->
      Alcotest.check_raises "runs must be positive"
        (Invalid_argument "Measure: runs must be positive") (fun () ->
          ignore (Measure.run ~runs grid)))
    [ 0; -1 ];
  (* The runner returns each cell's runs in grid order, seeds in order:
     exactly the scenarios [Measure.scenarios] lists, run one by one. *)
  let report r = Format.asprintf "%a" Runner.pp r in
  let direct = List.map (fun s -> report (Scenario.run s)) (Measure.scenarios ~runs:2 grid) in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list string)
        (Printf.sprintf "grid order at jobs %d" jobs)
        direct
        (List.map report (List.concat (Measure.run ~jobs ~runs:2 grid))))
    [ 1; 2 ];
  chk_bool "formatting" true
    (Measure.f1 1.25 = "1.2" && Measure.f2 0.333 = "0.33" && Measure.i0 9.6 = "10")

let single_din_improves () =
  let rows = Measure.run ~runs:1 (Single.grid ~sizes:[ 6.4 ] ~apps:[ "din" ] ()) in
  match rows with
  | [ row ] ->
    let _, ios_ratio = Measure.mean_ratio row.Single.controlled row.Single.original in
    chk_bool "large I/O reduction" true (ios_ratio < 0.4);
    chk_bool "elapsed not worse" true
      (Summary.mean row.Single.controlled.Measure.elapsed
      <= 1.02 *. Summary.mean row.Single.original.Measure.elapsed)
  | _ -> Alcotest.fail "expected one row"

let single_printers_render () =
  let rows = Measure.run ~runs:1 (Single.grid ~sizes:[ 6.4 ] ~apps:[ "din"; "cs1" ] ()) in
  List.iter
    (fun print ->
      let s = Format.asprintf "%a" print rows in
      chk_bool "mentions both apps" true
        (String.length s > 0
        && contains_sub ~sub:"din" s && contains_sub ~sub:"cs1" s))
    [ Single.print_fig4; Single.print_elapsed; Single.print_ios ]

let multi_combo_improves () =
  let rows = Measure.run ~runs:1 (Multi.grid ~sizes:[ 16.0 ] ~combos:[ [ "din"; "cs1" ] ] ()) in
  match rows with
  | [ row ] ->
    let _, ios_ratio = Measure.mean_ratio row.Multi.controlled row.Multi.original in
    chk_bool "combined I/Os not worse" true (ios_ratio <= 1.02);
    chk_bool "renders" true
      (String.length (Format.asprintf "%a" Multi.print rows) > 0)
  | _ -> Alcotest.fail "expected one row"

let alloc_lru_not_better () =
  let rows = Measure.run ~runs:1 (Alloc_lru.grid ~sizes:[ 6.4 ] ~combos:[ [ "cs2"; "gli" ] ] ()) in
  match rows with
  | [ row ] ->
    let _, ios_ratio = Measure.mean_ratio row.Alloc_lru.alloc_lru row.Alloc_lru.lru_sp in
    chk_bool "ALLOC-LRU >= LRU-SP (I/Os)" true (ios_ratio >= 0.98);
    chk_bool "renders" true
      (String.length (Format.asprintf "%a" Alloc_lru.print rows) > 0)
  | _ -> Alcotest.fail "expected one row"

let placeholders_protect () =
  let rows = Measure.run ~runs:1 (Placeholders.grid ~ns:[ 500 ] ()) in
  let find setting =
    List.find (fun r -> r.Placeholders.setting = setting) rows
  in
  let ios r = Summary.mean r.Placeholders.foreground.Measure.ios in
  let oblivious = find Placeholders.Oblivious in
  let unprotected = find Placeholders.Unprotected in
  let protected_ = find Placeholders.Protected in
  chk_bool "unprotected much worse than oblivious" true
    (ios unprotected > 1.2 *. ios oblivious);
  chk_bool "placeholders restore the oblivious level" true
    (ios protected_ < 1.05 *. ios oblivious);
  chk_bool "placeholders were used" true (protected_.Placeholders.placeholders_used > 0.0);
  chk_bool "no placeholders under LRU-S" true
    (unprotected.Placeholders.placeholders_used = 0.0);
  chk_bool "renders" true
    (String.length (Format.asprintf "%a" Placeholders.print rows) > 0)

let foolish_renders () =
  let rows = Measure.run ~runs:1 (Foolish.grid ~apps:[ "din" ] ()) in
  chk_int "two rows" 2 (List.length rows);
  chk_bool "renders" true (String.length (Format.asprintf "%a" Foolish.print rows) > 0)

let smart_oblivious_two_disks () =
  let rows = Measure.run ~runs:1 (Smart_oblivious.grid ~apps:[ "din" ] ~two_disks:true ()) in
  (* On separate disks a smart partner must not hurt Read300. *)
  let elapsed smart =
    let r = List.find (fun r -> r.Smart_oblivious.partner_smart = smart) rows in
    Summary.mean r.Smart_oblivious.read300.Measure.elapsed
  in
  chk_bool "smart partner harmless on its own disk" true
    (elapsed true <= 1.05 *. elapsed false);
  chk_bool "renders" true
    (String.length (Format.asprintf "%a" Smart_oblivious.print rows) > 0)

let ablations_sane () =
  (* Read-ahead: identical I/O counts, faster elapsed. *)
  let rows = Measure.run ~runs:1 (Ablations.readahead ~apps:[ "din" ] ()) in
  (match rows with
  | [ on; off ] ->
    chk_int "same I/Os" off.Ablations.ra_ios on.Ablations.ra_ios;
    chk_bool "read-ahead faster" true (on.Ablations.ra_elapsed < off.Ablations.ra_elapsed)
  | _ -> Alcotest.fail "expected two rows");
  (* Global order: the smart win is the same under LRU and CLOCK kernels. *)
  let rows = Measure.run ~runs:1 (Ablations.global_order ~apps:[ "din" ] ()) in
  let ios policy smart =
    (List.find
       (fun r -> r.Ablations.or_policy = policy && r.Ablations.or_smart = smart)
       rows)
      .Ablations.or_ios
  in
  chk_int "oblivious CLOCK == oblivious LRU on cyclic din"
    (ios Acfc_core.Config.Global_lru false)
    (ios Acfc_core.Config.Clock_sp false);
  chk_int "smart CLOCK-SP == smart LRU-SP"
    (ios Acfc_core.Config.Lru_sp true)
    (ios Acfc_core.Config.Clock_sp true);
  (* Revocation: tighter thresholds reduce the fool's own I/Os. *)
  let rows = Measure.run ~runs:1 (Ablations.revocation ()) in
  (match (List.hd rows).Ablations.threshold with
  | None -> ()
  | Some _ -> Alcotest.fail "first row should be revocation-off");
  let off_fool = (List.hd rows).Ablations.fool_ios in
  let tightest = List.nth rows (List.length rows - 1) in
  chk_bool "revocation defuses the fool" true
    (tightest.Ablations.fool_ios < off_fool)

let criteria_pass () =
  let verdicts = Measure.run ~runs:1 (Criteria.criterion3 ~apps:[ "din" ] ()) in
  chk_int "two sizes" 2 (List.length verdicts);
  List.iter
    (fun v -> chk_bool (v.Criteria.detail ^ " passes") true v.Criteria.pass)
    verdicts;
  chk_bool "renders" true
    (String.length (Format.asprintf "%a" Criteria.print verdicts) > 0)

let report_artifacts () =
  chk_int "eleven artifacts" 11 (List.length Report.artifacts);
  chk_int "nine from the paper" 9
    (List.length (List.filter (fun a -> a.Report.paper) Report.artifacts));
  let unknown = Invalid_argument "Report: unknown artifact fig9" in
  Alcotest.check_raises "unknown artifact run" unknown (fun () ->
      Report.run Report.quick Format.str_formatter [ "fig4"; "fig9" ]);
  Alcotest.check_raises "unknown artifact grid" unknown (fun () ->
      ignore (Report.scenarios Report.quick [ "fig9" ]))

let suites =
  [
    ( "experiments",
      [
        case "catalog" catalog_finds_all;
        case "combos resolve" combos_resolve;
        case "paper data" paper_data_lookup;
        case "measure helpers" measure_helpers;
        case "single: din improves" single_din_improves;
        case "single: printers" single_printers_render;
        case "multi: combined not worse" multi_combo_improves;
        case "fig6: alloc-lru not better" alloc_lru_not_better;
        case "table1: placeholders protect" placeholders_protect;
        case "table2: renders" foolish_renders;
        case "tables 3-4: smart harmless on own disk" smart_oblivious_two_disks;
        case "ablations" ablations_sane;
        case "criteria" criteria_pass;
        case "report artifacts" report_artifacts;
      ] );
  ]
