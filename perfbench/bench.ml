(* One benchmark run: set up a workload from its seed, run its units
   in a closed loop (one caller; each unit starts when the previous one
   has finished) for the requested time, check every output, and
   derive the end-to-end metrics, or, in the traced run, the per-layer
   ones. *)

type config = {
  workload : Units.workload;
  seed : int;
  seconds : float;  (** 0: exactly one round, no warm-up *)
  traced : bool;
  root : string;  (** the checkout: examples/ and test/golden/ live here *)
  table : Checks.table;
  max_units : int option;  (** run only the first units (tests) *)
}

(* A timed run goes on past [seconds] until this many units were
   timed, so that unit_ms_p90 has at least 10 samples beyond it. *)
let min_units = 100

(* Set-ups timed at least; setup_s is their median. *)
let min_setups = 5

let default_config workload =
  {
    workload;
    seed = 0;
    seconds = 10.0;
    traced = false;
    root = ".";
    table = Checks.empty_table ();
    max_units = None;
  }

type report = {
  name : string;
  setup : Units.setup;
  units : Units.t list;
  rounds : int;
  attempted : int;
  failed : int;
  table_checked : bool;
  problems : string list;  (** oldest first *)
  digests : string array;  (** each unit's first digest, in unit order *)
  metrics : (string * string * float) list;  (** name, unit, value *)
  spans : Spans.t option;
  kernel_ms : float;  (** median time of the calibration kernel *)
}

let now = Unix.gettimeofday

let sorted l = List.sort compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One timed call: the calibration it follows, wall seconds,
   references and minor words. *)
type sample = { cal : int; dt : float; refs : int; words : float }

let run cfg =
  let name = Units.workload_name cfg.workload in
  let clock = Clock.create () in
  let set_up () =
    Clock.timed clock (fun () ->
        Units.setup ~root:cfg.root ~seed:cfg.seed cfg.workload)
  in
  let result (_, _, s) = s in
  let setups = ref [ set_up () ] in
  let setup = result (List.hd !setups) in
  (* Set-up is repeated before every timed round, so its median spans
     the whole run; the repeat's garbage is collected before the round
     starts. *)
  let set_up_again () =
    setups := set_up () :: !setups;
    Gc.full_major ()
  in
  let units =
    match cfg.max_units with Some n -> take n setup.Units.units | None -> setup.Units.units
  in
  let arr = Array.of_list units in
  let checker = Checks.create cfg.table ~workload:name ~seed:cfg.seed units in
  let digests = Array.make (Array.length arr) "-" in
  let spans = Spans.create () and acc = Ladder.create_acc () in
  let samples = ref [] and peak_heap = ref 0 in
  let plain ~timed ~heap u =
    let cal = Clock.mark clock in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let raw = Units.execute u in
    let dt = now () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    Clock.charge clock dt;
    if timed then samples := { cal; dt; refs = Units.refs raw; words = dw } :: !samples;
    if heap then peak_heap := Stdlib.max !peak_heap (Gc.quick_stat ()).Gc.heap_words;
    (raw, [])
  in
  (* The heap is sampled after every unit of the first timed round
     only: later rounds would let the figure depend on how many rounds
     the host's speed allowed. *)
  let round ~timed ~heap =
    if cfg.traced then List.iter (Ladder.trace_l0 spans acc) setup.Units.traces;
    let results =
      Array.mapi
        (fun i u ->
          let call () =
            if cfg.traced then Ladder.unit_ladder spans acc ~sample:(i mod 4 = 0) u
            else plain ~timed ~heap u
          in
          match call () with
          | raw, extra ->
            let digest, problems = Checks.output_problems checker ~index:i u raw in
            if digests.(i) = "-" then digests.(i) <- digest;
            (Checks.misses raw, problems @ extra)
          | exception e -> (None, [ "raised " ^ Printexc.to_string e ]))
        arr
    in
    let bound = Checks.opt_bound (Array.mapi (fun i (m, _) -> (arr.(i), m)) results) in
    Array.iteri
      (fun i (_, problems) -> Checks.record checker arr.(i) (problems @ bound.(i)))
      results
  in
  let timing = cfg.seconds > 0.0 && not cfg.traced in
  if timing then round ~timed:false ~heap:false;
  Gc.full_major ();
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let rounds = ref 0 in
  while
    !rounds = 0
    || now () -. t0 < cfg.seconds
    || (timing && Array.length arr * !rounds < min_units)
  do
    set_up_again ();
    round ~timed:true ~heap:(!rounds = 0);
    incr rounds
  done;
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  while List.length !setups < min_setups do
    set_up_again ()
  done;
  let scale = Clock.scaler clock in
  let setup_s = median (List.map (fun (k, dt, _) -> scale k dt) !setups) in
  let setup =
    let each f = median (List.map (fun s -> f (result s)) !setups) in
    {
      setup with
      Units.wirgen_s = each (fun s -> s.Units.wirgen_s);
      parse_s = each (fun s -> s.Units.parse_s);
    }
  in
  let metrics =
    if cfg.traced then Ladder.metrics acc ~setup ~major_collections:major
    else
      let sum f = List.fold_left (fun a s -> a +. f s) 0.0 !samples in
      let refs = sum (fun s -> float_of_int s.refs) in
      let scaled s = scale s.cal s.dt in
      let ms = List.map (fun s -> 1000.0 *. scaled s) !samples in
      let attempted = float_of_int checker.Checks.attempted in
      [
        ("refs_per_s", "refs/s", ratio refs (sum scaled));
        ("unit_ms_p50", "ms", median ms);
        ("unit_ms_p90", "ms", percentile 0.9 ms);
        ("minor_words_per_ref", "words/ref", ratio (sum (fun s -> s.words)) refs);
        ("peak_heap_mb", "MB", float_of_int (!peak_heap * (Sys.word_size / 8)) /. 1e6);
        ("setup_s", "s", setup_s);
        ( "unit_pass_ratio",
          "ratio",
          ratio (attempted -. float_of_int checker.Checks.failed) attempted );
      ]
  in
  {
    name;
    setup;
    units;
    rounds = !rounds;
    attempted = checker.Checks.attempted;
    failed = checker.Checks.failed;
    table_checked = checker.Checks.expected <> None;
    problems = List.rev checker.Checks.problems;
    digests;
    metrics;
    spans = (if cfg.traced then Some spans else None);
    kernel_ms = 1000.0 *. Clock.median_kernel clock;
  }

(* {2 Output} *)

let number v = if Float.is_finite v then Printf.sprintf "%.10g" v else "0"

let result_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
          r.metrics))

let print_report ~seed r =
  Printf.printf "perfbench workload=%s seed=%d mode=%s units=%d rounds=%d\n" r.name seed
    (if r.spans = None then "untraced" else "traced")
    (List.length r.units) r.rounds;
  List.iter
    (fun (t : Units.trace) ->
      Printf.printf "corpus %s %s programs=%d refs=%d working_set=%d\n" t.Units.label t.Units.hash
        (List.length t.Units.programs) (Array.length t.Units.blocks) t.Units.working_set)
    r.setup.Units.traces;
  List.iter
    (fun (u : Units.t) ->
      match u.Units.kind with
      | Units.Run _ | Units.Fleet_run _ -> Printf.printf "scenario %s %s\n" u.Units.id u.Units.input
      | Units.Policy_pass _ | Units.Cache_pass _ -> ())
    r.units;
  Printf.printf "calibration kernel median %.3f ms (reference %.3f ms)\n" r.kernel_ms
    (1000.0 *. Clock.reference_s);
  Printf.printf "inputs %s (expected digests %s)\n" (Checks.inputs_digest r.units)
    (if r.table_checked then "checked" else "not in table; checked by repetition");
  List.iteri (fun i p -> if i < 20 then Printf.printf "FAILED %s\n" p) r.problems;
  Printf.printf "failed_unit_ratio %s (%d/%d)\n"
    (number (ratio (float_of_int r.failed) (float_of_int r.attempted)))
    r.failed r.attempted;
  (match r.spans with
  | Some s ->
    List.iter
      (fun (n, (total, self, count)) ->
        Printf.printf "span %-16s n=%-6d total_s=%.4f self_s=%.4f\n" n count total self)
      (Spans.by_name s)
  | None -> ());
  List.iter (fun (n, u, v) -> Printf.printf "metric %s %s %s\n" n (number v) u) r.metrics;
  print_endline (result_json r)
