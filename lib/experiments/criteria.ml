module Config = Acfc_core.Config
module Scenario = Acfc_scenario.Scenario
module Summary = Acfc_stats.Summary
module Table = Acfc_stats.Table
open Measure.Syntax

type verdict = { criterion : string; detail : string; measured : string; pass : bool }

(* Criterion 1: an oblivious Read300 on its own disk, with each partner
   oblivious vs smart — Table 4's grid. Its I/Os must be identical
   (compulsory only) and its elapsed time must not degrade materially. *)
let criterion1 () =
  let+ rows = Smart_oblivious.grid ~two_disks:true () in
  let with_smart app =
    (List.find (fun (r : Smart_oblivious.row) -> r.app = app && r.partner_smart) rows).read300
  in
  List.filter_map
    (fun (r : Smart_oblivious.row) ->
      if r.partner_smart then None
      else
        let o = r.read300 and s = with_smart r.app in
        let ios_o = Summary.mean o.Measure.ios and ios_s = Summary.mean s.Measure.ios in
        let t_o = Summary.mean o.Measure.elapsed and t_s = Summary.mean s.Measure.elapsed in
        Some
          {
            criterion = "1: oblivious unharmed";
            detail = "Read300 w. " ^ r.app;
            measured =
              Printf.sprintf "ios %.0f->%.0f, elapsed %.1fs->%.1fs" ios_o ios_s t_o t_s;
            pass = ios_s <= 1.01 *. ios_o && t_s <= 1.05 *. t_o;
          })
    rows

(* Criterion 2: placeholders bound the I/O damage a foolish manager can
   do to an oblivious victim. *)
let scenario2 ~foolish ~n ~seed =
  let bg =
    if foolish then Scenario.workload ~smart:true ~disk:0 "read300!"
    else Scenario.workload ~smart:false ~disk:0 "read300"
  in
  Scenario.make ~seed ~cache_blocks:819 ~alloc_policy:Config.Lru_sp
    [ Scenario.workload ~smart:false ~disk:0 (Printf.sprintf "read%d" n); bg ]

let criterion2 () =
  Measure.all
  @@ List.map
       (fun n ->
         let victim_ios foolish =
           let+ runs = Measure.cell (fun seed -> scenario2 ~foolish ~n ~seed) in
           Summary.mean (Measure.app_summary runs ~index:0).Measure.ios
         in
         let+ ios_b = victim_ios false and+ ios_a = victim_ios true in
         {
           criterion = "2: foolishness contained";
           detail = Printf.sprintf "Read%d vs foolish Read300" n;
           measured = Printf.sprintf "victim ios %.0f->%.0f" ios_b ios_a;
           pass = ios_a <= 1.05 *. ios_b;
         })
       [ 390; 490 ]

(* Criterion 3: smart never worse than oblivious, per app and size — the
   Single grid at two cache sizes. *)
let criterion3 ?apps () =
  let+ rows = Single.grid ~sizes:[ 6.4; 16.0 ] ?apps () in
  List.map
    (fun (r : Single.row) ->
      let ios_o = Summary.mean r.original.Measure.ios
      and ios_s = Summary.mean r.controlled.Measure.ios in
      {
        criterion = "3: smart never worse";
        detail = Printf.sprintf "%s @ %gMB" r.app r.mb;
        measured = Printf.sprintf "ios %.0f->%.0f" ios_o ios_s;
        pass = ios_s <= 1.03 *. ios_o;
      })
    rows

let grid () =
  let+ c1 = criterion1 () and+ c2 = criterion2 () and+ c3 = criterion3 () in
  c1 @ c2 @ c3

let print ppf verdicts =
  let table =
    Table.create
      ~columns:
        [
          ("criterion", Table.Left);
          ("case", Table.Left);
          ("measured", Table.Left);
          ("verdict", Table.Center);
        ]
  in
  let last = ref "" in
  List.iter
    (fun v ->
      if !last <> "" && !last <> v.criterion then Table.add_rule table;
      last := v.criterion;
      Table.add_row table
        [ v.criterion; v.detail; v.measured; (if v.pass then "PASS" else "FAIL") ])
    verdicts;
  let failed = List.length (List.filter (fun v -> not v.pass) verdicts) in
  Format.fprintf ppf
    "The paper's allocation-policy criteria (Sec. 2), checked mechanically:@\n%a%d checks, %d failures@\n"
    Table.render table (List.length verdicts) failed
