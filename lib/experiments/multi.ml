module Config = Acfc_core.Config
module Scenario = Acfc_scenario.Scenario
module Table = Acfc_stats.Table
open Measure.Syntax

type row = {
  combo : string;
  mb : float;
  original : Measure.m;
  controlled : Measure.m;
}

(* The experiment as a scenario generator: one grid point — a mix, a
   cache size, a kernel, a seed — maps to one machine description. *)
let scenario ~mb ~kernel ~seed names =
  let smart, alloc_policy =
    match kernel with
    | `Original -> (false, Config.Global_lru)
    | `Controlled -> (true, Config.Lru_sp)
  in
  Scenario.make ~seed ~cache_blocks:(Scenario.blocks_of_mb mb) ~alloc_policy
    (List.map (fun name -> Scenario.workload ~smart name) names)

let grid ?(sizes = Paper_data.cache_sizes_mb) ?(combos = Paper_data.fig5_combos) () =
  Measure.all
  @@ List.concat_map
       (fun names ->
         List.map
           (fun mb ->
             let measure kernel =
               let+ runs = Measure.cell (fun seed -> scenario ~mb ~kernel ~seed names) in
               Measure.total_summary runs
             in
             let+ original = measure `Original and+ controlled = measure `Controlled in
             { combo = Paper_data.combo_name names; mb; original; controlled })
           sizes)
       combos

let print ppf rows =
  let table =
    Table.create
      ~columns:
        [
          ("combination", Table.Left);
          ("MB", Table.Right);
          ("elapsed ratio", Table.Right);
          ("I/O ratio", Table.Right);
        ]
  in
  let last = ref "" in
  List.iter
    (fun r ->
      if !last <> "" && !last <> r.combo then Table.add_rule table;
      last := r.combo;
      let elapsed_ratio, ios_ratio = Measure.mean_ratio r.controlled r.original in
      Table.add_row table
        [ r.combo; Printf.sprintf "%g" r.mb; Measure.f2 elapsed_ratio; Measure.f2 ios_ratio ])
    rows;
  Format.fprintf ppf
    "Figure 5: concurrent mixes under LRU-SP, normalised to the original kernel (=1.0)@\n\
     (the paper reports these as bar charts; improvement grows with cache size)@\n\
     %a"
    Table.render table;
  let max_cv =
    List.fold_left
      (fun m r ->
        List.fold_left Float.max m
          [
            Acfc_stats.Summary.cv r.original.Measure.elapsed;
            Acfc_stats.Summary.cv r.controlled.Measure.elapsed;
          ])
      0.0 rows
  in
  Format.fprintf ppf "max run-to-run variance (CV): %.1f%% (paper: <2%%)@\n"
    (100.0 *. max_cv);
  (* Figure-style rendering of the largest-cache column. *)
  let largest =
    List.fold_left (fun m r -> Float.max m r.mb) 0.0 rows
  in
  let chart_rows =
    List.filter_map
      (fun r ->
        if r.mb = largest then
          Some (r.combo, snd (Measure.mean_ratio r.controlled r.original))
        else None)
      rows
  in
  if chart_rows <> [] then begin
    Format.fprintf ppf "@\nnormalised block I/Os at %gMB (bar = LRU-SP, | = original kernel):@\n"
      largest;
    Acfc_stats.Chart.bars ~reference:1.0 ppf chart_rows
  end
