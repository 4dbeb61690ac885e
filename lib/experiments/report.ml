open Measure.Syntax

type options = { runs : int; sizes : float list; jobs : int option }

let default = { runs = 3; sizes = Paper_data.cache_sizes_mb; jobs = None }

let quick = { runs = 1; sizes = [ 6.4; 16.0 ]; jobs = None }

type artifact = { name : string; doc : string; paper : bool }

(* One grid and the artifacts printed from its rows. *)
type experiment =
  | Experiment : {
      grid : options -> 'rows Measure.t;
      printers : (artifact * (Format.formatter -> 'rows -> unit)) list;
    }
      -> experiment

let experiment grid printers = Experiment { grid; printers }

let paper name doc print = ({ name; doc; paper = true }, print)

let extra name doc print = ({ name; doc; paper = false }, print)

let table =
  [
    experiment
      (fun o -> Single.grid ~sizes:o.sizes ())
      [
        paper "fig4" "per-app elapsed time and block I/Os, LRU-SP vs the original kernel"
          Single.print_fig4;
        paper "table5" "elapsed seconds per app and cache size, original kernel vs LRU-SP"
          Single.print_elapsed;
        paper "table6" "block I/Os per app and cache size, original kernel vs LRU-SP"
          Single.print_ios;
      ];
    experiment
      (fun o -> Multi.grid ~sizes:o.sizes ())
      [
        paper "fig5" "the nine concurrent mixes under LRU-SP, normalised to the original kernel"
          Multi.print;
      ];
    experiment
      (fun o -> Alloc_lru.grid ~sizes:o.sizes ())
      [ paper "fig6" "ALLOC-LRU vs LRU-SP on five mixes: swapping is necessary" Alloc_lru.print ];
    experiment
      (fun _ -> Placeholders.grid ())
      [
        paper "table1" "placeholder protection of an oblivious ReadN against a foolish Read300"
          Placeholders.print;
      ];
    experiment
      (fun _ -> Foolish.grid ())
      [ paper "table2" "smart applications beside an oblivious vs foolish Read300" Foolish.print ];
    experiment
      (fun _ -> Smart_oblivious.grid ~two_disks:false ())
      [
        paper "table3" "oblivious Read300 beside oblivious vs smart partners, one shared disk"
          Smart_oblivious.print;
      ];
    experiment
      (fun _ -> Smart_oblivious.grid ~two_disks:true ())
      [
        paper "table4" "oblivious Read300 beside oblivious vs smart partners, own RZ26 disk"
          Smart_oblivious.print;
      ];
    experiment
      (fun _ -> Ablations.grid ())
      [
        extra "ablations"
          "read-ahead, disk scheduling, update interval, layout, clustering, CLOCK order and \
           revocation sweeps"
          Ablations.print;
      ];
    experiment
      (fun _ -> Criteria.grid ())
      [
        extra "criteria" "the paper's three allocation-policy criteria, checked mechanically"
          Criteria.print;
      ];
  ]

let artifacts = List.concat_map (fun (Experiment e) -> List.map fst e.printers) table

(* The selected artifacts' grids, each once, yielding the artifacts
   ready to print. *)
let grid opts names =
  List.iter
    (fun name ->
      if not (List.exists (fun a -> a.name = name) artifacts) then
        invalid_arg ("Report: unknown artifact " ^ name))
    names;
  let+ printed =
    Measure.all
      (List.filter_map
         (fun (Experiment e) ->
           match List.filter (fun (a, _) -> List.mem a.name names) e.printers with
           | [] -> None
           | selected ->
             Some
               (let+ rows = e.grid opts in
                List.map (fun (a, print) -> (a, fun ppf -> print ppf rows)) selected))
         table)
  in
  List.concat printed

let scenarios opts names = Measure.scenarios ~runs:opts.runs (grid opts names)

let hr ppf = Format.fprintf ppf "@\n%s@\n@\n" (String.make 74 '=')

let run opts ppf names =
  List.iteri
    (fun i (a, print) ->
      if a.paper || i > 0 then hr ppf;
      print ppf)
    (Measure.run ?jobs:opts.jobs ~runs:opts.runs (grid opts names))
