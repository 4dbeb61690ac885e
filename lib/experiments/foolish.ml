module Scenario = Acfc_scenario.Scenario
module Summary = Acfc_stats.Summary
module Table = Acfc_stats.Table
open Measure.Syntax

type row = { app : string; bg_foolish : bool; smart_app : Measure.m }

let default_apps = [ "din"; "cs2"; "gli"; "ldk" ]

let scenario ~cache_mb ~bg_foolish ~seed name =
  let bg =
    if bg_foolish then Scenario.workload ~smart:true ~disk:0 "read300!"
    else Scenario.workload ~smart:false ~disk:0 "read300"
  in
  Scenario.make ~seed
    ~cache_blocks:(Scenario.blocks_of_mb cache_mb)
    ~alloc_policy:Acfc_core.Config.Lru_sp
    [ Scenario.workload ~smart:true name; bg ]

let grid ?(cache_mb = 6.4) ?(apps = default_apps) () =
  Measure.all
  @@ List.concat_map
       (fun app ->
         List.map
           (fun bg_foolish ->
             let+ runs = Measure.cell (fun seed -> scenario ~cache_mb ~bg_foolish ~seed app) in
             { app; bg_foolish; smart_app = Measure.app_summary runs ~index:0 })
           [ false; true ])
       apps

let print ppf rows =
  let apps = List.sort_uniq compare (List.map (fun r -> r.app) rows) in
  let apps =
    (* keep the paper's column order when present *)
    List.filter (fun a -> List.mem a apps) default_apps
    @ List.filter (fun a -> not (List.mem a default_apps)) apps
  in
  let columns =
    ("Read300 policy", Table.Left)
    :: List.map (fun a -> (a, Table.Right)) apps
  in
  let elapsed_table = Table.create ~columns in
  let ios_table = Table.create ~columns in
  List.iter
    (fun bg_foolish ->
      let label = if bg_foolish then "Foolish" else "Oblivious" in
      let cell f =
        List.map
          (fun a ->
            match
              List.find_opt (fun r -> r.app = a && r.bg_foolish = bg_foolish) rows
            with
            | Some r -> f r
            | None -> "-")
          apps
      in
      Table.add_row elapsed_table
        (label :: cell (fun r -> Measure.f1 (Summary.mean r.smart_app.Measure.elapsed)));
      Table.add_row ios_table
        (label :: cell (fun r -> Measure.i0 (Summary.mean r.smart_app.Measure.ios))))
    [ false; true ];
  Format.fprintf ppf
    "Table 2: smart applications running against an oblivious vs foolish Read300@\n\
     (6.4 MB cache). Elapsed seconds of the smart application:@\n\
     %aBlock I/Os of the smart application:@\n\
     %a"
    Table.render elapsed_table Table.render ios_table
