(* Live metrics streaming (Acfc_obs.Monitor): the acfc-monitor/1 JSONL
   codec, follow-tail semantics against a writer that is still running
   (a fleet simulation in another domain), the renderer, and the
   obs-required contract on the run entry points. *)

open Tutil
module Monitor = Acfc_obs.Monitor
module Obs = Acfc_obs
module Scenario = Acfc_scenario.Scenario
module Fleet = Acfc_fleet.Fleet

let with_stream f =
  let path = Filename.temp_file "acfc-monitor" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let null_sink () = Obs.Sink.create ~backend:Obs.Sink.Null ()

(* {2 Codec} *)

let test_parse_line () =
  let ok l = match Monitor.parse_line l with Ok e -> e | Error m -> Alcotest.fail m in
  (match ok {|{"schema":"acfc-monitor/1","type":"start"}|} with
  | Monitor.Start _ -> ()
  | _ -> Alcotest.fail "expected Start");
  (match ok {|{"type":"snapshot","metrics":{"now":1.0}}|} with
  | Monitor.Snapshot _ -> ()
  | _ -> Alcotest.fail "expected Snapshot");
  (match ok {|{"type":"end","now":9.5}|} with
  | Monitor.End _ -> ()
  | _ -> Alcotest.fail "expected End");
  let rejects l sub =
    match Monitor.parse_line l with
    | Ok _ -> Alcotest.fail ("accepted: " ^ l)
    | Error msg ->
      chk_bool (Printf.sprintf "rejects %s (got %S)" sub msg) true
        (contains_sub ~sub msg)
  in
  rejects "not json at all" "invalid JSON";
  rejects {|{"schema":"acfc-monitor/9","type":"start"}|} "unsupported schema";
  rejects {|{"type":"snapshot"}|} "without metrics";
  rejects {|{"type":"wat"}|} "unknown record type";
  rejects {|{"now":1.0}|} "without a type"

let test_producer_stream_shape () =
  with_stream (fun path ->
      let sink = null_sink () in
      let metrics = Obs.Sink.metrics sink in
      let p = Monitor.producer ~path ~info:[ ("scenario", Obs.Json.Str "cafe") ] () in
      Monitor.sample p ~metrics ~now:1.0;
      Monitor.sample p ~metrics ~now:2.0;
      Monitor.finish p ~now:2.0;
      (* finish is idempotent: a second call must not reopen or append. *)
      Monitor.finish p ~now:99.0;
      let events = ref [] in
      (match
         Monitor.follow ~path ~timeout_s:2.0
           ~on_event:(fun e ->
             events := e :: !events;
             `Continue)
           ()
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      match List.rev !events with
      | [ Monitor.Start s; Monitor.Snapshot _; Monitor.Snapshot _; Monitor.End e ] ->
        check Alcotest.(option string) "info lands in the start record" (Some "cafe")
          (Option.bind (Obs.Json.member "scenario" s) Obs.Json.to_str);
        check Alcotest.(option (float 1e-9)) "end carries the final clock" (Some 2.0)
          (Option.bind (Obs.Json.member "now" e) Obs.Json.to_num)
      | l -> Alcotest.fail (Printf.sprintf "unexpected stream of %d events" (List.length l)))

(* {2 Follow semantics} *)

let test_follow_times_out () =
  with_stream (fun path ->
      let p = Monitor.producer ~path () in
      (* Stream started but never finished and never growing: the
         follower must give up after timeout_s, not hang. *)
      ignore p;
      match
        Monitor.follow ~path ~poll_s:0.005 ~timeout_s:0.1
          ~on_event:(fun _ -> `Continue)
          ()
      with
      | Ok () -> Alcotest.fail "follow must not report success"
      | Error msg -> chk_bool "timeout error" true (contains_sub ~sub:"no new data" msg))

let test_follow_missing_file_times_out () =
  match
    Monitor.follow
      ~path:(Filename.concat (Filename.get_temp_dir_name ()) "acfc-no-such.jsonl")
      ~poll_s:0.005 ~timeout_s:0.1
      ~on_event:(fun _ -> `Continue)
      ()
  with
  | Ok () -> Alcotest.fail "follow must not report success"
  | Error msg -> chk_bool "appearance timeout" true (contains_sub ~sub:"to appear" msg)

let test_follow_stop_early () =
  with_stream (fun path ->
      let sink = null_sink () in
      let p = Monitor.producer ~path () in
      Monitor.sample p ~metrics:(Obs.Sink.metrics sink) ~now:1.0;
      Monitor.finish p ~now:1.0;
      let seen = ref 0 in
      (match
         Monitor.follow ~path ~timeout_s:2.0
           ~on_event:(fun _ ->
             incr seen;
             `Stop)
           ()
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      chk_int "callback stopped the stream after one event" 1 !seen)

(* The headline contract: tail a fleet simulation that is genuinely
   running in another domain, and see its snapshots arrive before the
   end record. *)
let test_tail_live_fleet_run () =
  with_stream (fun path ->
      let scn = Golden_defs.fleet_small () in
      let producer = Monitor.producer ~path ~info:[ ("scenario", Obs.Json.Str (Scenario.hash scn)) ] () in
      let runner =
        Domain.spawn (fun () ->
            Fleet.run ~jobs:2 ~obs:(null_sink ()) ~monitor:(producer, 5.0) scn)
      in
      let starts = ref 0 and snapshots = ref 0 and ends = ref 0 in
      let rendered = Buffer.create 1024 in
      let ppf = Format.formatter_of_buffer rendered in
      let r = Monitor.renderer () in
      let result =
        Monitor.follow ~path ~timeout_s:30.0
          ~on_event:(fun e ->
            Monitor.render r ppf e;
            (match e with
            | Monitor.Start _ -> incr starts
            | Monitor.Snapshot _ -> incr snapshots
            | Monitor.End _ -> incr ends);
            `Continue)
          ()
      in
      let report = Domain.join runner in
      Format.pp_print_flush ppf ();
      (match result with Ok () -> () | Error msg -> Alcotest.fail msg);
      chk_int "one start record" 1 !starts;
      chk_int "one end record" 1 !ends;
      chk_bool "at least one live snapshot" true (!snapshots >= 1);
      let out = Buffer.contents rendered in
      chk_bool "renderer names the scenario" true
        (contains_sub ~sub:(Scenario.hash scn) out);
      chk_bool "renderer prints per-client lines" true
        (contains_sub ~sub:"client 0:" out);
      chk_bool "renderer prints the server line" true (contains_sub ~sub:"server:" out);
      chk_bool "renderer prints the end summary" true
        (contains_sub ~sub:"run complete" out);
      (* The monitored run must still produce a normal report. *)
      chk_bool "fleet report intact" true (report.Fleet.makespan_s > 0.0))

(* Monitoring samples a live metrics registry; without obs there is
   nothing to sample, and the entry points must say so rather than
   silently stream nothing. *)
let test_monitor_requires_obs () =
  with_stream (fun path ->
      let scn =
        Scenario.make ~seed:0 ~cache_blocks:64 [ Scenario.workload "read60" ]
      in
      let p = Monitor.producer ~path () in
      match Scenario.run ~monitor:(p, 1.0) scn with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "Scenario.run must reject monitor without obs")

(* A monitor period below the floor would never let the run finish: a
   period of 0 wrote 47,050 snapshots at time 0 and went on. It is
   refused before anything runs. *)
let test_monitor_period_floor () =
  with_stream (fun path ->
      let scn = Scenario.make ~seed:0 ~cache_blocks:64 [ Scenario.workload "read60" ] in
      let p = Monitor.producer ~path () in
      List.iter
        (fun every ->
          Alcotest.check_raises (Printf.sprintf "period %g" every)
            (Invalid_argument "Scenario.run: the monitor period must be finite and >= 0.01")
            (fun () -> ignore (Scenario.run ~obs:(null_sink ()) ~monitor:(p, every) scn)))
        [ 0.0; 0.001; Float.nan; Float.infinity ])

(* A monitored single-machine run streams snapshots from inside the
   engine and ends at the run's final clock. *)
let test_scenario_monitor_stream () =
  with_stream (fun path ->
      let scn =
        Scenario.make ~seed:0 ~cache_blocks:64 [ Scenario.workload "read60" ]
      in
      let p = Monitor.producer ~path () in
      ignore (Scenario.run ~obs:(null_sink ()) ~monitor:(p, 1.0) scn);
      let snapshots = ref 0 and finished = ref false in
      (match
         Monitor.follow ~path ~timeout_s:2.0
           ~on_event:(fun e ->
             (match e with
             | Monitor.Snapshot _ -> incr snapshots
             | Monitor.End _ -> finished := true
             | Monitor.Start _ -> ());
             `Continue)
           ()
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      chk_bool "streamed at least one snapshot" true (!snapshots >= 1);
      chk_bool "stream properly finished" true !finished)

let suites =
  [
    ( "monitor",
      [
        case "parse_line classifies and rejects" test_parse_line;
        case "producer stream shape" test_producer_stream_shape;
        case "follow times out on a stalled stream" test_follow_times_out;
        case "follow times out when the file never appears"
          test_follow_missing_file_times_out;
        case "callback can stop the stream" test_follow_stop_early;
        case "scenario run streams snapshots" test_scenario_monitor_stream;
        case "monitor without obs is rejected" test_monitor_requires_obs;
        case "a monitor period below the floor is refused" test_monitor_period_floor;
        case "tails a live fleet run end-to-end" test_tail_live_fleet_run;
      ] );
  ]
