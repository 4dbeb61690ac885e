module Config = Acfc_core.Config
module Scenario = Acfc_scenario.Scenario
module Table = Acfc_stats.Table
open Measure.Syntax

type row = {
  combo : string;
  mb : float;
  lru_sp : Measure.m;
  alloc_lru : Measure.m;
}

let scenario ~mb ~alloc_policy ~seed names =
  Scenario.make ~seed ~cache_blocks:(Scenario.blocks_of_mb mb) ~alloc_policy
    (List.map (fun name -> Scenario.workload ~smart:true name) names)

let grid ?(sizes = Paper_data.cache_sizes_mb) ?(combos = Paper_data.fig6_combos) () =
  Measure.all
  @@ List.concat_map
       (fun names ->
         List.map
           (fun mb ->
             let measure alloc_policy =
               let+ runs = Measure.cell (fun seed -> scenario ~mb ~alloc_policy ~seed names) in
               Measure.total_summary runs
             in
             let+ lru_sp = measure Config.Lru_sp and+ alloc_lru = measure Config.Alloc_lru in
             { combo = Paper_data.combo_name names; mb; lru_sp; alloc_lru })
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
      let elapsed_ratio, ios_ratio = Measure.mean_ratio r.alloc_lru r.lru_sp in
      Table.add_row table
        [ r.combo; Printf.sprintf "%g" r.mb; Measure.f2 elapsed_ratio; Measure.f2 ios_ratio ])
    rows;
  Format.fprintf ppf
    "Figure 6: ALLOC-LRU normalised to LRU-SP (=1.0); values above 1.0 mean@\n\
     ALLOC-LRU is worse, showing that swapping is necessary@\n\
     %a"
    Table.render table
