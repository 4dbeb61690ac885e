module Config = Acfc_core.Config
module Scenario = Acfc_scenario.Scenario
module Summary = Acfc_stats.Summary
module Table = Acfc_stats.Table
open Measure.Syntax

type row = {
  app : string;
  partner_smart : bool;
  two_disks : bool;
  read300 : Measure.m;
}

let default_apps = [ "din"; "cs2"; "gli"; "ldk" ]

let scenario ~cache_mb ~two_disks ~partner_smart ~seed name =
  let read300_disk = if two_disks then 1 else 0 in
  let alloc_policy = if partner_smart then Config.Lru_sp else Config.Global_lru in
  Scenario.make ~seed
    ~cache_blocks:(Scenario.blocks_of_mb cache_mb)
    ~alloc_policy
    [
      Scenario.workload ~smart:false ~disk:read300_disk "read300";
      (* The partner always runs on the RZ56 in these experiments
         (paper Sec. 6.2). *)
      Scenario.workload ~smart:partner_smart ~disk:0 name;
    ]

let grid ?(cache_mb = 6.4) ?(apps = default_apps) ~two_disks () =
  Measure.all
  @@ List.concat_map
       (fun app ->
         List.map
           (fun partner_smart ->
             let+ runs =
               Measure.cell (fun seed ->
                   scenario ~cache_mb ~two_disks ~partner_smart ~seed app)
             in
             { app; partner_smart; two_disks; read300 = Measure.app_summary runs ~index:0 })
           [ false; true ])
       apps

let print ppf rows =
  List.iter
    (fun two_disks ->
      let rows = List.filter (fun r -> r.two_disks = two_disks) rows in
      if rows <> [] then begin
        let apps = List.filter (fun a -> List.exists (fun r -> r.app = a) rows) default_apps in
        let columns =
          ("partner mode", Table.Left) :: List.map (fun a -> ("w. " ^ a, Table.Right)) apps
        in
        let table = Table.create ~columns in
        List.iter
          (fun partner_smart ->
            let label = if partner_smart then "Smart" else "Oblivious" in
            Table.add_row table
              (label
              :: List.map
                   (fun a ->
                     match
                       List.find_opt
                         (fun r -> r.app = a && r.partner_smart = partner_smart)
                         rows
                     with
                     | Some r -> Measure.f1 (Summary.mean r.read300.Measure.elapsed)
                     | None -> "-")
                   apps))
          [ false; true ];
        Format.fprintf ppf
          "Table %d: elapsed seconds of the oblivious Read300 with oblivious vs smart@\n\
           partners (%s)@\n\
           %a"
          (if two_disks then 4 else 3)
          (if two_disks then "Read300 on its own RZ26 disk" else "one shared disk")
          Table.render table
      end)
    [ false; true ]
