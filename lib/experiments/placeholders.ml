module Config = Acfc_core.Config
module Runner = Acfc_workload.Runner
module Scenario = Acfc_scenario.Scenario
module Summary = Acfc_stats.Summary
module Table = Acfc_stats.Table
open Measure.Syntax

type setting = Oblivious | Unprotected | Protected

type row = {
  setting : setting;
  n : int;
  foreground : Measure.m;
  placeholders_used : float;
}

let setting_name = function
  | Oblivious -> "Oblivious"
  | Unprotected -> "Unprotected"
  | Protected -> "Protected"

let settings = [ Oblivious; Unprotected; Protected ]

(* "read300" is oblivious LRU; "read300!" foolishly keeps MRU order. *)
let background = function
  | Oblivious -> Scenario.workload ~smart:false ~disk:0 "read300"
  | Unprotected | Protected -> Scenario.workload ~smart:true ~disk:0 "read300!"

let alloc_policy = function
  | Oblivious | Protected -> Config.Lru_sp
  | Unprotected -> Config.Lru_s

let scenario ~cache_mb ~setting ~n ~seed =
  Scenario.make ~seed
    ~cache_blocks:(Scenario.blocks_of_mb cache_mb)
    ~alloc_policy:(alloc_policy setting)
    [
      Scenario.workload ~smart:false ~disk:0 (Printf.sprintf "read%d" n);
      background setting;
    ]

let grid ?(cache_mb = 6.4) ?(ns = [ 390; 400; 490; 500 ]) () =
  Measure.all
  @@ List.concat_map
       (fun setting ->
         List.map
           (fun n ->
             let+ runs = Measure.cell (fun seed -> scenario ~cache_mb ~setting ~n ~seed) in
             let placeholders_used =
               Summary.mean
                 (Summary.of_list
                    (List.map (fun r -> float_of_int r.Runner.placeholders_used) runs))
             in
             { setting; n; foreground = Measure.app_summary runs ~index:0; placeholders_used })
           ns)
       settings

let print ppf rows =
  let ns = List.sort_uniq compare (List.map (fun r -> r.n) rows) in
  let columns =
    (("setting", Table.Left) :: List.map (fun n -> (Printf.sprintf "Read%d" n, Table.Right)) ns)
    @ [ ("ph-used", Table.Right) ]
  in
  let elapsed_table = Table.create ~columns in
  let ios_table = Table.create ~columns in
  List.iter
    (fun setting ->
      let cells = List.filter (fun r -> r.setting = setting) rows in
      let cells = List.sort (fun a b -> compare a.n b.n) cells in
      let ph =
        Measure.f1
          (List.fold_left (fun acc r -> acc +. r.placeholders_used) 0.0 cells
          /. float_of_int (List.length cells))
      in
      Table.add_row elapsed_table
        ((setting_name setting
         :: List.map (fun r -> Measure.f1 (Summary.mean r.foreground.Measure.elapsed)) cells)
        @ [ ph ]);
      Table.add_row ios_table
        ((setting_name setting
         :: List.map (fun r -> Measure.i0 (Summary.mean r.foreground.Measure.ios)) cells)
        @ [ ph ]))
    settings;
  Format.fprintf ppf
    "Table 1: protection by placeholders (foreground oblivious ReadN vs background@\n\
     Read300; 6.4 MB cache). Elapsed seconds:@\n\
     %aBlock I/Os (Protected should return to the Oblivious level):@\n\
     %a"
    Table.render elapsed_table Table.render ios_table
