module Config = Acfc_core.Config
module Scenario = Acfc_scenario.Scenario
module Summary = Acfc_stats.Summary
module Table = Acfc_stats.Table
open Measure.Syntax

type row = {
  app : string;
  mb : float;
  original : Measure.m;
  controlled : Measure.m;
}

let scenario ~mb ~kernel ~seed name =
  let smart, alloc_policy =
    match kernel with
    | `Original -> (false, Config.Global_lru)
    | `Controlled -> (true, Config.Lru_sp)
  in
  Scenario.make ~seed ~cache_blocks:(Scenario.blocks_of_mb mb) ~alloc_policy
    [ Scenario.workload ~smart name ]

let grid ?(sizes = Paper_data.cache_sizes_mb) ?(apps = Acfc_scenario.Catalog.app_names) () =
  Measure.all
  @@ List.concat_map
       (fun app ->
         List.map
           (fun mb ->
             let measure kernel =
               let+ runs = Measure.cell (fun seed -> scenario ~mb ~kernel ~seed app) in
               Measure.app_summary runs ~index:0
             in
             let+ original = measure `Original and+ controlled = measure `Controlled in
             { app; mb; original; controlled })
           sizes)
       apps

let by_app rows =
  List.fold_left
    (fun acc row ->
      match List.assoc_opt row.app acc with
      | Some cells ->
        cells := row :: !cells;
        acc
      | None -> acc @ [ (row.app, ref [ row ]) ])
    [] rows
  |> List.map (fun (app, cells) ->
         (app, List.sort (fun a b -> compare a.mb b.mb) !cells))

let print_metric ~what ~fmt ~value ~paper ppf rows =
  let sizes = List.sort_uniq compare (List.map (fun r -> r.mb) rows) in
  let table =
    Table.create
      ~columns:
        ([ ("app", Table.Left); ("kernel", Table.Left); ("measure", Table.Left) ]
        @ List.map (fun mb -> (Printf.sprintf "%gMB" mb, Table.Right)) sizes)
  in
  List.iter
    (fun (app, cells) ->
      let line kernel source f =
        Table.add_row table
          ([ app; kernel; source ] @ List.map f cells)
      in
      line "original" "measured" (fun c -> fmt (value c.original));
      line "original" "paper" (fun c ->
          match paper app ~mb:c.mb with Some (o, _) -> fmt o | None -> "-");
      line "LRU-SP" "measured" (fun c -> fmt (value c.controlled));
      line "LRU-SP" "paper" (fun c ->
          match paper app ~mb:c.mb with Some (_, s) -> fmt s | None -> "-");
      line "ratio" "measured" (fun c ->
          Measure.f2 (value c.controlled /. value c.original));
      line "ratio" "paper" (fun c ->
          match paper app ~mb:c.mb with
          | Some (o, s) -> Measure.f2 (s /. o)
          | None -> "-");
      Table.add_rule table)
    (by_app rows);
  let max_cv =
    List.fold_left
      (fun m r ->
        List.fold_left Float.max m
          [
            Summary.cv r.original.Measure.elapsed;
            Summary.cv r.controlled.Measure.elapsed;
            Summary.cv r.original.Measure.ios;
            Summary.cv r.controlled.Measure.ios;
          ])
      0.0 rows
  in
  Format.fprintf ppf
    "%s@\n%amax run-to-run variance (CV) across cells: %.1f%% (paper: <2%%, a few <5%%)@\n"
    what Table.render table (100.0 *. max_cv)

let print_elapsed ppf rows =
  print_metric
    ~what:"Table 5: elapsed time (seconds), original kernel vs LRU-SP"
    ~fmt:Measure.f1
    ~value:(fun m -> Summary.mean m.Measure.elapsed)
    ~paper:Paper_data.lookup_elapsed ppf rows

let print_ios ppf rows =
  print_metric ~what:"Table 6: number of block I/Os, original kernel vs LRU-SP"
    ~fmt:Measure.i0
    ~value:(fun m -> Summary.mean m.Measure.ios)
    ~paper:Paper_data.lookup_ios ppf rows

let print_fig4 ppf rows =
  let table =
    Table.create
      ~columns:
        [
          ("app", Table.Left);
          ("MB", Table.Right);
          ("elapsed ratio", Table.Right);
          ("paper", Table.Right);
          ("I/O ratio", Table.Right);
          ("paper", Table.Right);
        ]
  in
  List.iter
    (fun (app, cells) ->
      List.iter
        (fun c ->
          let elapsed_ratio, ios_ratio = Measure.mean_ratio c.controlled c.original in
          let paper_elapsed =
            match Paper_data.lookup_elapsed app ~mb:c.mb with
            | Some (o, s) -> Measure.f2 (s /. o)
            | None -> "-"
          in
          let paper_ios =
            match Paper_data.lookup_ios app ~mb:c.mb with
            | Some (o, s) -> Measure.f2 (s /. o)
            | None -> "-"
          in
          Table.add_row table
            [
              app;
              Printf.sprintf "%g" c.mb;
              Measure.f2 elapsed_ratio;
              paper_elapsed;
              Measure.f2 ios_ratio;
              paper_ios;
            ])
        cells;
      Table.add_rule table)
    (by_app rows);
  Format.fprintf ppf
    "Figure 4: normalised elapsed time and block I/Os under LRU-SP (original = 1.0)@\n%a"
    Table.render table;
  let largest = List.fold_left (fun m r -> Float.max m r.mb) 0.0 rows in
  let chart_rows =
    List.filter_map
      (fun r ->
        if r.mb = largest then
          Some (r.app, snd (Measure.mean_ratio r.controlled r.original))
        else None)
      rows
  in
  if chart_rows <> [] then begin
    Format.fprintf ppf
      "@\nnormalised block I/Os at %gMB (bar = LRU-SP, | = original kernel):@\n" largest;
    Acfc_stats.Chart.bars ~reference:1.0 ppf chart_rows
  end
