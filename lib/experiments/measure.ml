module Summary = Acfc_stats.Summary
module Runner = Acfc_workload.Runner
module Scenario = Acfc_scenario.Scenario
module Pool = Acfc_par.Pool

(* [read get] builds the rows, where [get i] is the runs of cell [i]. *)
type 'a t = { cells : (int -> Scenario.t) list; read : (int -> Runner.t list) -> 'a }

let cell scenario = { cells = [ scenario ]; read = (fun get -> get 0) }

let map f g = { g with read = (fun get -> f (g.read get)) }

let both a b =
  let k = List.length a.cells in
  { cells = a.cells @ b.cells; read = (fun get -> (a.read get, b.read (fun i -> get (k + i)))) }

let all grids =
  List.fold_right
    (fun g rest -> map (fun (x, xs) -> x :: xs) (both g rest))
    grids
    { cells = []; read = (fun _ -> []) }

module Syntax = struct
  let ( let+ ) g f = map f g

  let ( and+ ) = both
end

let scenarios ~runs g =
  if runs <= 0 then invalid_arg "Measure: runs must be positive";
  List.concat_map (fun cell -> List.init runs cell) g.cells

let run ?jobs ~runs g =
  let scenarios = Array.of_list (scenarios ~runs g) in
  let results =
    Pool.with_pool ?jobs @@ fun pool ->
    Array.map (fun s -> Pool.async pool (fun () -> Scenario.run s)) scenarios
    |> Array.map (Pool.await pool)
  in
  g.read (fun i -> Array.to_list (Array.sub results (i * runs) runs))

type m = { elapsed : Summary.t; ios : Summary.t }

let app_summary results ~index =
  let apps = List.map (fun r -> List.nth r.Runner.apps index) results in
  {
    elapsed = Summary.of_list (List.map (fun a -> a.Runner.elapsed) apps);
    ios = Summary.of_list (List.map (fun a -> float_of_int a.Runner.block_ios) apps);
  }

let total_summary results =
  {
    elapsed = Summary.of_list (List.map (fun r -> r.Runner.makespan) results);
    ios = Summary.of_list (List.map (fun r -> float_of_int r.Runner.total_ios) results);
  }

let mean_ratio controlled baseline =
  ( Summary.mean controlled.elapsed /. Summary.mean baseline.elapsed,
    Summary.mean controlled.ios /. Summary.mean baseline.ios )

let f1 x = Printf.sprintf "%.1f" x

let f2 x = Printf.sprintf "%.2f" x

let i0 x = Printf.sprintf "%.0f" x
