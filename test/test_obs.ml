(* The observability layer: JSON round-trips, trace backends, the
   metrics registry, and the trace-vs-counters regression that pins the
   instrumentation to the cache's own statistics. *)

open Tutil
module Obs = Acfc_obs
module Json = Acfc_obs.Json
module Trace = Acfc_obs.Trace
module Metrics = Acfc_obs.Metrics
module Sink = Acfc_obs.Sink
module Runner = Acfc_workload.Runner

let chk_str = check Alcotest.string

(* {2 Json} *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("int", Json.Num 1200.0);
      ("neg", Json.Num (-3.5));
      ("tiny", Json.Num 0.0068266666666666666);
      ("text", Json.Str "a \"quoted\" \\ line\nwith\ttabs");
      ("list", Json.List [ Json.Num 1.0; Json.Str "x"; Json.Bool false ]);
      ("nested", Json.Obj [ ("k", Json.Num 0.0) ]);
    ]

let json_round_trip () =
  match Json.of_string (Json.to_string sample_json) with
  | Ok v -> chk_bool "round-trips" true (Json.equal v sample_json)
  | Error e -> Alcotest.fail e

let json_integers_compact () =
  chk_str "int rendering" "1200" (Json.to_string (Json.Num 1200.0));
  chk_str "zero rendering" "0" (Json.to_string (Json.Num 0.0));
  chk_str "float rendering" "-3.5" (Json.to_string (Json.Num (-3.5)))

let json_accessors () =
  chk_bool "member" true (Json.member "flag" sample_json = Some (Json.Bool true));
  chk_bool "missing member" true (Json.member "nope" sample_json = None);
  chk_bool "to_int" true (Json.to_int (Json.Num 7.0) = Some 7);
  chk_bool "to_int non-integer" true (Json.to_int (Json.Num 7.5) = None);
  chk_bool "to_str" true (Json.to_str (Json.Str "s") = Some "s")

(* Beyond 2^53 a [Num] no longer holds every integer, so [to_int]
   refuses it rather than wrap or round. *)
let json_integer_range () =
  chk_bool "2^53" true (Json.to_int (Json.Num 0x1p53) = Some (1 lsl 53));
  chk_bool "-2^53" true (Json.to_int (Json.Num (-0x1p53)) = Some (-(1 lsl 53)));
  chk_bool "2^62 refused" true (Json.to_int (Json.Num 0x1p62) = None);
  chk_bool "1e300 refused" true (Json.to_int (Json.Num 1e300) = None)

(* The codec's encoders refuse what its decoders would reject. *)
let codec_number_range () =
  let module Codec = Acfc_obs.Codec in
  chk_str "2^53 encodes" "9007199254740992" (Codec.to_string Codec.int (1 lsl 53));
  chk_bool "and decodes" true
    (Codec.of_string ~label:"t" Codec.int "-9007199254740992" = Ok (-(1 lsl 53)));
  Alcotest.check_raises "2^60 refused"
    (Invalid_argument "Codec.int: 1152921504606846976 is beyond 2^53 and would not read back")
    (fun () -> ignore (Codec.to_string Codec.int (1 lsl 60)));
  Alcotest.check_raises "infinity refused"
    (Invalid_argument "Codec.float: infinity has no JSON form")
    (fun () -> ignore (Codec.to_string Codec.float Float.infinity))

(* A literal that overflows would print back as bare [inf]. *)
let json_rejects_overflow () =
  List.iter
    (fun (s, msg) ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error e -> chk_str s msg e)
    [
      ("1e999", "JSON parse error at byte 5: number out of range");
      ({|{"a":-1e999}|}, "JSON parse error at byte 11: number out of range");
    ]

let json_rejects_garbage () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let json_float_round_trip =
  qcheck ~count:500 "json float round-trip" QCheck2.Gen.float (fun f ->
      let f = if Float.is_nan f || Float.is_integer f then 0.5 else f in
      match Json.of_string (Json.to_string (Json.Num f)) with
      | Ok (Json.Num g) -> Float.equal f g
      | Ok _ | Error _ -> false)

(* {2 Trace events} *)

let b ~file ~index = { Trace.file; index }

(* One value per constructor, exercising every field. *)
let all_events =
  [
    Trace.Cache_hit { pid = 1; block = b ~file:2 ~index:3 };
    Trace.Cache_miss { pid = 0; block = b ~file:1 ~index:9; prefetch = true };
    Trace.Evict
      {
        victim = b ~file:0 ~index:1;
        owner = 2;
        candidate = b ~file:0 ~index:7;
        policy = "lru-sp";
        reason = "capacity";
      };
    Trace.Writeback { block = b ~file:4 ~index:4 };
    Trace.Swap { kept = b ~file:1 ~index:2; victim = b ~file:3 ~index:4 };
    Trace.Placeholder_created
      { replaced = b ~file:0 ~index:5; target = b ~file:0 ~index:6; chooser = 1 };
    Trace.Placeholder_hit
      { missing = b ~file:0 ~index:5; target = b ~file:0 ~index:6; chooser = 1 };
    Trace.Manager_revoked { pid = 3 };
    Trace.Disk_io
      {
        disk = "RZ56";
        kind = "read";
        addr = 1042;
        blocks = 2;
        seek = 0.0155;
        rot = 0.0068266666666666666;
        xfer = 0.00833;
        wait = 0.0;
      };
    Trace.Syscall { pid = 0; op = "read"; detail = "file=3 off=0 len=8192" };
    Trace.Fiber { name = "read100"; op = "spawn" };
  ]

let trace_json_round_trip () =
  List.iteri
    (fun i ev ->
      let r = { Trace.time = 0.25 +. float_of_int i; ev } in
      match Trace.of_json (Trace.to_json r) with
      | Ok r' -> chk_bool (Trace.kind ev ^ " round-trips") true (r' = r)
      | Error e -> Alcotest.failf "%s: %s" (Trace.kind ev) e)
    all_events

let trace_kinds_stable () =
  chk_str "kinds" "cache_hit cache_miss evict writeback swap placeholder_created \
                   placeholder_hit manager_revoked disk_io syscall fiber"
    (String.concat " " (List.map Trace.kind all_events))

let trace_csv_columns () =
  let columns s = List.length (String.split_on_char ',' s) in
  let width = columns Trace.csv_header in
  List.iter
    (fun ev ->
      let row = Trace.to_csv { Trace.time = 1.0; ev } in
      chk_int (Trace.kind ev ^ " csv width") width (columns row))
    all_events

(* {2 Sink backends} *)

let jsonl_backend_round_trip () =
  let path = Filename.temp_file "acfc_obs" ".jsonl" in
  let oc = open_out path in
  let sink = Sink.create ~clock:(fun () -> 1.5) ~backend:(Sink.Jsonl oc) () in
  List.iter (Sink.emit sink) all_events;
  Sink.flush sink;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  chk_int "emitted" (List.length all_events) (Sink.emitted sink);
  chk_int "lines" (List.length all_events) (List.length lines);
  List.iter2
    (fun ev line ->
      match Result.bind (Json.of_string line) Trace.of_json with
      | Ok r ->
        chk_bool (Trace.kind ev ^ " parsed back") true
          (r.Trace.ev = ev && r.Trace.time = 1.5)
      | Error e -> Alcotest.fail e)
    all_events lines

let csv_backend_writes_header () =
  let path = Filename.temp_file "acfc_obs" ".csv" in
  let oc = open_out path in
  let sink = Sink.create ~backend:(Sink.Csv oc) () in
  List.iter (Sink.emit sink) all_events;
  Sink.flush sink;
  close_out oc;
  let ic = open_in path in
  let header = input_line ic in
  let rows = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr rows
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  chk_str "header" Trace.csv_header header;
  chk_int "rows" (List.length all_events) !rows

(* {2 Metrics} *)

let metrics_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "reads" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  (* Creation is idempotent: same name, same counter. *)
  Metrics.incr (Metrics.counter m "reads");
  chk_int "counter value" 6 (Metrics.counter_value m "reads");
  chk_int "absent counter" 0 (Metrics.counter_value m "nope");
  let level = ref 3.0 in
  Metrics.gauge m "level" (fun () -> !level);
  chk_bool "gauge sampled" true (Metrics.gauge_value m "level" = Some 3.0);
  level := 4.0;
  chk_bool "gauge tracks" true (Metrics.gauge_value m "level" = Some 4.0);
  let h = Metrics.histogram m "lat" in
  Metrics.observe h 0.001;
  Metrics.observe h 0.002;
  chk_int "histogram count" 2 (Metrics.histogram_count m "lat");
  Metrics.reset m;
  chk_int "reset zeroes counters" 0 (Metrics.counter_value m "reads");
  chk_int "reset zeroes histograms" 0 (Metrics.histogram_count m "lat");
  chk_bool "reset keeps gauges" true (Metrics.gauge_value m "level" = Some 4.0)

let snapshot_shape () =
  let m = Metrics.create () in
  Metrics.incr ~by:2 (Metrics.counter m "b");
  Metrics.incr (Metrics.counter m "a");
  Metrics.gauge m "g" (fun () -> 1.5);
  Metrics.observe (Metrics.histogram m "h") 0.5;
  let s = Metrics.snapshot m ~now:10.0 in
  chk_bool "now" true (Json.member "now" s = Some (Json.Num 10.0));
  (match Json.member "counters" s with
  | Some (Json.Obj kvs) ->
    chk_bool "counters sorted" true (List.map fst kvs = [ "a"; "b" ])
  | _ -> Alcotest.fail "no counters section");
  match Option.bind (Json.member "histograms" s) (Json.member "h") with
  | Some h ->
    chk_bool "histogram count field" true (Json.member "count" h = Some (Json.Num 1.0));
    chk_bool "histogram sum field" true (Json.member "sum" h = Some (Json.Num 0.5))
  | None -> Alcotest.fail "no histogram section"

(* {2 A full instrumented run} *)

let readn_spec () =
  Runner.Spec.make ~smart:false
    (Acfc_workload.Readn.app ~n:20 ~mode:`Oblivious ())

(* Metrics snapshots are byte-identical across runs with the same
   seed: sorted names plus a deterministic simulation. *)
let snapshot_deterministic () =
  let snapshot_of_run () =
    let sink = Sink.create () in
    ignore
      (Acfc_scenario.Scenario.run_specs ~seed:7 ~obs:sink ~cache_blocks:256
         ~alloc_policy:Acfc_core.Config.Lru_sp [ readn_spec () ]);
    Json.to_string (Metrics.snapshot (Sink.metrics sink) ~now:(Sink.now sink))
  in
  chk_str "same seed, same snapshot" (snapshot_of_run ()) (snapshot_of_run ())

(* The regression the issue asks for: miss events in the trace agree
   with the cache's own counters, in total and per application. *)
let traced_misses_match_counters () =
  let per_pid = Hashtbl.create 8 in
  let total = ref 0 in
  let backend =
    Sink.Custom
      (fun r ->
        match r.Trace.ev with
        | Trace.Cache_miss { pid; _ } ->
          incr total;
          Hashtbl.replace per_pid pid
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_pid pid))
        | _ -> ())
  in
  let sink = Sink.create ~backend () in
  let result =
    Acfc_scenario.Scenario.run_specs ~seed:0 ~obs:sink ~cache_blocks:256
      ~alloc_policy:Acfc_core.Config.Lru_sp
      [ readn_spec (); readn_spec () ]
  in
  chk_bool "workload missed at all" true (!total > 0);
  chk_int "traced misses = cache counter" result.Runner.cache_misses !total;
  List.iter
    (fun a ->
      chk_int
        ("per-app misses, pid " ^ string_of_int (Acfc_core.Pid.to_int a.Runner.pid))
        a.Runner.cache_misses
        (Option.value ~default:0
           (Hashtbl.find_opt per_pid (Acfc_core.Pid.to_int a.Runner.pid))))
    result.Runner.apps;
  (* The registered gauges agree too. *)
  chk_bool "cache.misses gauge" true
    (Metrics.gauge_value (Sink.metrics sink) "cache.misses"
    = Some (float_of_int result.Runner.cache_misses))

let suites =
  [
    ( "obs/json",
      [
        case "round-trip" json_round_trip;
        case "integer rendering" json_integers_compact;
        case "accessors" json_accessors;
        case "rejects garbage" json_rejects_garbage;
        case "integer range" json_integer_range;
        case "rejects overflowing numbers" json_rejects_overflow;
        case "codec number range" codec_number_range;
        json_float_round_trip;
      ] );
    ( "obs/trace",
      [
        case "every event round-trips" trace_json_round_trip;
        case "kinds are stable" trace_kinds_stable;
        case "csv column counts" trace_csv_columns;
        case "jsonl backend" jsonl_backend_round_trip;
        case "csv backend" csv_backend_writes_header;
      ] );
    ( "obs/metrics",
      [
        case "counters, gauges, histograms" metrics_counters_and_gauges;
        case "snapshot shape" snapshot_shape;
      ] );
    ( "obs/regression",
      [
        case "snapshot deterministic" snapshot_deterministic;
        case "traced misses match counters" traced_misses_match_counters;
      ] );
  ]
