module Config = Acfc_core.Config
module Disk = Acfc_disk.Disk
module Runner = Acfc_workload.Runner
module Scenario = Acfc_scenario.Scenario
module Summary = Acfc_stats.Summary
module Table = Acfc_stats.Table
open Measure.Syntax

let mean_fl runs f = Summary.mean (Summary.of_list (List.map f runs))

let mean_int runs f = int_of_float (mean_fl runs (fun r -> float_of_int (f r)))

let app i r = List.nth r.Runner.apps i

(* {2 Read-ahead} *)

type readahead_row = {
  ra_app : string;
  readahead : bool;
  ra_elapsed : float;
  ra_ios : int;
}

let readahead_scenario ~ra ~seed name =
  Scenario.make ~seed ~readahead:ra ~cache_blocks:819
    ~alloc_policy:Config.Global_lru
    [ Scenario.workload ~smart:false name ]

let readahead ?(apps = [ "din"; "cs1"; "sort" ]) () =
  Measure.all
  @@ List.concat_map
       (fun name ->
         List.map
           (fun ra ->
             let+ runs = Measure.cell (fun seed -> readahead_scenario ~ra ~seed name) in
             {
               ra_app = name;
               readahead = ra;
               ra_elapsed = mean_fl runs (fun r -> (app 0 r).Runner.elapsed);
               ra_ios = mean_int runs (fun r -> (app 0 r).Runner.block_ios);
             })
           [ true; false ])
       apps

(* {2 Disk scheduling} *)

type sched_row = {
  sched : Disk.sched;
  combo : string;
  sc_makespan : float;
  sc_ios : int;
}

let sched_combos =
  (* Two random-access processes on one disk build a queue that SCAN
     can reorder; pjn + pjn clone is the most disk-random pair. *)
  [ ([ "pjn"; "gli" ], "pjn+gli(one disk)"); ([ "pjn"; "sort" ], "pjn+sort(one disk)") ]

let sched_scenario ~sched ~seed names =
  Scenario.make ~seed ~disk_sched:sched ~cache_blocks:819
    ~alloc_policy:Config.Global_lru
    (* Force everything onto disk 0 to create contention. *)
    (List.map (fun name -> Scenario.workload ~smart:false ~disk:0 name) names)

let disk_sched () =
  Measure.all
  @@ List.concat_map
       (fun (names, label) ->
         List.map
           (fun sched ->
             let+ runs = Measure.cell (fun seed -> sched_scenario ~sched ~seed names) in
             {
               sched;
               combo = label;
               sc_makespan = mean_fl runs (fun r -> r.Runner.makespan);
               sc_ios = mean_int runs (fun r -> r.Runner.total_ios);
             })
           [ Disk.Fcfs; Disk.Scan ])
       sched_combos

(* {2 Update-daemon interval} *)

type update_row = { interval : float; up_ios : int; up_writes : int }

let update_scenario ~interval ~seed =
  Scenario.make ~seed ~update_interval:interval ~cache_blocks:4096
    ~alloc_policy:Config.Lru_sp
    [ Scenario.workload ~smart:true "sort" ]

let update_interval ?(intervals = [ 5.0; 30.0; 120.0; 600.0 ]) () =
  Measure.all
  @@ List.map
       (fun interval ->
         let+ runs = Measure.cell (fun seed -> update_scenario ~interval ~seed) in
         {
           interval;
           up_ios = mean_int runs (fun r -> (app 0 r).Runner.block_ios);
           up_writes = mean_int runs (fun r -> (app 0 r).Runner.disk_writes);
         })
       intervals

(* {2 File-system layout: packed vs aged/scattered} *)

type layout_row = {
  la_app : string;
  scattered : bool;
  la_elapsed : float;
  la_ios : int;
}

let layout_scenario ~scattered ~seed name =
  Scenario.make ~seed ~scattered_layout:scattered ~cache_blocks:819
    ~alloc_policy:Config.Global_lru
    [ Scenario.workload ~smart:false name ]

let layout ?(apps = [ "cs2"; "ldk" ]) () =
  Measure.all
  @@ List.concat_map
       (fun name ->
         List.map
           (fun scattered ->
             let+ runs = Measure.cell (fun seed -> layout_scenario ~scattered ~seed name) in
             {
               la_app = name;
               scattered;
               la_elapsed = mean_fl runs (fun r -> (app 0 r).Runner.elapsed);
               la_ios = mean_int runs (fun r -> (app 0 r).Runner.block_ios);
             })
           [ false; true ])
       apps

(* {2 Clustered write-back} *)

type cluster_row = { cl_size : int; cl_elapsed : float; cl_ios : int }

let cluster_scenario ~size ~seed =
  Scenario.make ~seed ~write_cluster:size ~cache_blocks:819
    ~alloc_policy:Config.Lru_sp
    [ Scenario.workload ~smart:true "sort" ]

let write_clustering ?(sizes = [ 1; 4; 8 ]) () =
  Measure.all
  @@ List.map
       (fun size ->
         let+ runs = Measure.cell (fun seed -> cluster_scenario ~size ~seed) in
         {
           cl_size = size;
           cl_elapsed = mean_fl runs (fun r -> (app 0 r).Runner.elapsed);
           cl_ios = mean_int runs (fun r -> (app 0 r).Runner.block_ios);
         })
       sizes

(* {2 Global allocation order (Sec. 7: LRU vs CLOCK)} *)

type order_row = {
  or_app : string;
  or_policy : Config.alloc_policy;
  or_smart : bool;
  or_ios : int;
}

let order_cases =
  [
    (Config.Global_lru, false);
    (Config.Clock_sp, false);
    (Config.Lru_sp, true);
    (Config.Clock_sp, true);
  ]

let order_scenario ~policy ~smart ~seed name =
  Scenario.make ~seed ~cache_blocks:819 ~alloc_policy:policy
    [ Scenario.workload ~smart name ]

let global_order ?(apps = [ "din"; "cs1" ]) () =
  Measure.all
  @@ List.concat_map
       (fun name ->
         List.map
           (fun (policy, smart) ->
             let+ runs = Measure.cell (fun seed -> order_scenario ~policy ~smart ~seed name) in
             {
               or_app = name;
               or_policy = policy;
               or_smart = smart;
               or_ios = mean_int runs (fun r -> (app 0 r).Runner.block_ios);
             })
           order_cases)
       apps

(* {2 Revocation thresholds} *)

type revocation_row = {
  threshold : Config.revocation option;
  victim_ios : int;
  fool_ios : int;
  mistakes_caught : int;
}

let revocation_thresholds =
  [
    None;
    Some { Config.min_decisions = 500; mistake_ratio = 0.9 };
    Some { Config.min_decisions = 200; mistake_ratio = 0.5 };
    Some { Config.min_decisions = 50; mistake_ratio = 0.3 };
  ]

let revocation_scenario ~threshold ~seed =
  Scenario.make ~seed ?revocation:threshold ~cache_blocks:819
    ~alloc_policy:Config.Lru_sp
    [
      Scenario.workload ~smart:false ~disk:0 "read490";
      Scenario.workload ~smart:true ~disk:0 "read300!";
    ]

let revocation () =
  Measure.all
  @@ List.map
       (fun threshold ->
         let+ runs = Measure.cell (fun seed -> revocation_scenario ~threshold ~seed) in
         {
           threshold;
           victim_ios = mean_int runs (fun r -> (app 0 r).Runner.block_ios);
           fool_ios = mean_int runs (fun r -> (app 1 r).Runner.block_ios);
           mistakes_caught = mean_int runs (fun r -> r.Runner.placeholders_used);
         })
       revocation_thresholds

(* {2 The sweep, in print order} *)

type sections = (Format.formatter -> unit) list

(* One printed table: its heading, its columns and each row's cells. *)
let section title columns cells grid =
  let+ rows = grid in
  fun ppf ->
    let t = Table.create ~columns in
    List.iter (fun r -> Table.add_row t (cells r)) rows;
    Format.fprintf ppf title;
    Table.render ppf t

let grid () =
  Measure.all
    [
      section "Ablation: one-block sequential read-ahead@\n"
        [ ("app", Table.Left); ("read-ahead", Table.Left); ("elapsed (s)", Table.Right);
          ("block I/Os", Table.Right) ]
        (fun r ->
          [ r.ra_app; (if r.readahead then "on" else "off"); Measure.f1 r.ra_elapsed;
            string_of_int r.ra_ios ])
        (readahead ());
      section "Ablation: disk scheduling under contention@\n"
        [ ("mix", Table.Left); ("sched", Table.Left); ("makespan (s)", Table.Right);
          ("block I/Os", Table.Right) ]
        (fun r ->
          [ r.combo; (match r.sched with Disk.Fcfs -> "FCFS" | Disk.Scan -> "SCAN");
            Measure.f1 r.sc_makespan; string_of_int r.sc_ios ])
        (disk_sched ());
      section
        "Ablation: update-daemon interval (smart sort, 32 MB cache; later flushes let@\n\
         deleted temporaries cancel their writes)@\n"
        [ ("interval (s)", Table.Right); ("block I/Os", Table.Right);
          ("disk writes", Table.Right) ]
        (fun r ->
          [ Printf.sprintf "%g" r.interval; string_of_int r.up_ios;
            string_of_int r.up_writes ])
        (update_interval ());
      section
        "Ablation: clustered write-back (smart sort, 6.4 MB; same block I/Os,@\n\
         positioning amortised across each cluster)@\n"
        [ ("cluster", Table.Right); ("elapsed (s)", Table.Right);
          ("block I/Os", Table.Right) ]
        (fun r -> [ string_of_int r.cl_size; Measure.f1 r.cl_elapsed; string_of_int r.cl_ios ])
        (write_clustering ());
      section
        "Ablation: file layout (packed vs aged/scattered; multi-file scans pay@\n\
         inter-file seeks on an aged file system)@\n"
        [ ("app", Table.Left); ("layout", Table.Left); ("elapsed (s)", Table.Right);
          ("block I/Os", Table.Right) ]
        (fun r ->
          [ r.la_app; (if r.scattered then "scattered" else "packed");
            Measure.f1 r.la_elapsed; string_of_int r.la_ios ])
        (layout ());
      section
        "Ablation: global allocation order (Sec. 7) - application control works@\n\
         over a VM-style CLOCK list as well as over true LRU@\n"
        [ ("app", Table.Left); ("kernel", Table.Left); ("app policy", Table.Left);
          ("block I/Os", Table.Right) ]
        (fun r ->
          [ r.or_app; Config.alloc_policy_to_string r.or_policy;
            (if r.or_smart then "smart (MRU)" else "oblivious");
            string_of_int r.or_ios ])
        (global_order ());
      section
        "Ablation: revoking a foolish manager (oblivious Read490 vs foolish Read300)@\n"
        [ ("revocation", Table.Left); ("victim I/Os", Table.Right);
          ("fool I/Os", Table.Right); ("mistakes caught", Table.Right) ]
        (fun r ->
          let label =
            match r.threshold with
            | None -> "off"
            | Some { Config.min_decisions; mistake_ratio } ->
              Printf.sprintf ">=%d dec., %.0f%%" min_decisions (100.0 *. mistake_ratio)
          in
          [ label; string_of_int r.victim_ios; string_of_int r.fool_ios;
            string_of_int r.mistakes_caught ])
        (revocation ());
    ]

let print ppf sections =
  List.iteri
    (fun i print ->
      if i > 0 then Format.fprintf ppf "@\n";
      print ppf)
    sections
