(* The domain-parallel fleet engine (acfc.fleet): the SPSC batch
   buffer, the deterministic barrier merge, the epoch clock, the
   determinism contract (byte-identical reports at every worker count
   and under a finer epoch partition, on fleet_small and on generated
   fleets), the per-client observability gauges, and the $.fleet
   scenario section's strict parsing. *)

open Tutil
module Batch = Acfc_fleet.Batch
module Fleet = Acfc_fleet.Fleet
module Epoch = Acfc_sim.Epoch
module Scenario = Acfc_scenario.Scenario
module Metrics = Acfc_obs.Metrics
module Obs = Acfc_obs
module Wir = Acfc_wir.Wir
module Wirgen = Acfc_wirgen.Wirgen

(* {2 Batch: no lost, duplicated or reordered requests} *)

let test_batch_roundtrip () =
  (* Capacity 2 forces repeated growth well past the initial columns. *)
  let b = Batch.create ~capacity:2 () in
  let n = 1_000 in
  let model =
    Array.init n (fun i ->
        (float_of_int ((i * 7919) mod 97) /. 8.0, i mod 7, i, i mod 3, i * 11))
  in
  Array.iter
    (fun (ts, client, seq, wld, blk) -> Batch.push b ~ts ~client ~seq ~wld ~blk)
    model;
  chk_int "every push retained" n (Batch.length b);
  Array.iteri
    (fun i (ts, client, seq, wld, blk) ->
      chk_float "ts preserved in order" ts (Batch.ts b i);
      chk_int "client preserved" client (Batch.client b i);
      chk_int "seq preserved" seq (Batch.seq b i);
      chk_int "wld preserved" wld (Batch.wld b i);
      chk_int "blk preserved" blk (Batch.blk b i))
    model;
  Batch.clear b;
  chk_int "clear empties" 0 (Batch.length b);
  Batch.push b ~ts:1.0 ~client:3 ~seq:0 ~wld:1 ~blk:42;
  chk_int "reusable after clear" 1 (Batch.length b);
  chk_int "fresh contents after clear" 42 (Batch.blk b 0)

(* {2 Barrier merge: a pure function of (ts, client, seq)} *)

let merge_spec reqs =
  List.sort
    (fun (t1, c1, s1, _, _) (t2, c2, s2, _, _) -> compare (t1, c1, s1) (t2, c2, s2))
    reqs

(* Requests with deliberate send-time ties across clients (ts drawn from
   a small grid) but unique (client, seq): the merge must equal the
   List.sort specification and must not care how the requests are
   spread over the buffers. *)
let qcheck_merge =
  qcheck ~count:200 "merge = List.sort spec, invariant under buffer distribution"
    QCheck2.Gen.(
      pair
        (list (triple (int_bound 5) (int_bound 3) (int_bound 7)))
        (int_range 1 5))
    (fun (raw, nbuf) ->
      let next_seq = Array.make 4 0 in
      let reqs =
        List.map
          (fun (t, client, wld) ->
            let seq = next_seq.(client) in
            next_seq.(client) <- seq + 1;
            (float_of_int t /. 8.0, client, seq, wld, (client * 1000) + seq))
          raw
      in
      let spread k =
        let bufs = Array.init k (fun _ -> Batch.create ~capacity:1 ()) in
        List.iteri
          (fun i (ts, client, seq, wld, blk) ->
            Batch.push bufs.(i mod k) ~ts ~client ~seq ~wld ~blk)
          reqs;
        Fleet.For_tests.merge bufs
      in
      let spec = merge_spec reqs in
      spread nbuf = spec && spread 1 = spec)

let test_merge_clears () =
  let b = Batch.create () in
  Batch.push b ~ts:1.0 ~client:0 ~seq:0 ~wld:0 ~blk:1;
  ignore (Fleet.For_tests.merge [| b |]);
  chk_int "merge drains the buffers" 0 (Batch.length b)

(* {2 Epoch clock} *)

let test_epoch_boundaries () =
  let ep = Epoch.make ~start:0.0 ~length:0.004 in
  chk_float "boundary 0" 0.0 (Epoch.boundary ep 0);
  chk_float "boundary 3" 0.012 (Epoch.boundary ep 3);
  chk_float "horizon k = boundary (k+1)" (Epoch.boundary ep 4) (Epoch.horizon ep 3)

(* index_of must return the smallest k whose horizon covers the time —
   the epoch loop relies on this to skip idle stretches without ever
   skipping an event. *)
let test_epoch_index_of () =
  let ep = Epoch.make ~start:0.0 ~length:0.004 in
  for i = 0 to 2_000 do
    let t = float_of_int i *. 0.00123 in
    let k = Epoch.index_of ep t in
    chk_bool "t <= horizon k" true (t <= Epoch.horizon ep k);
    if k > 0 then chk_bool "k minimal" true (t > Epoch.horizon ep (k - 1))
  done;
  (* Exactly on a horizon: that epoch, not the next. *)
  for k = 0 to 50 do
    chk_int "index_of (horizon k) = k" k (Epoch.index_of ep (Epoch.horizon ep k))
  done

(* {2 The determinism contract} *)

let small_fleet () = Golden_defs.fleet_small ()

let test_jobs_byte_identical () =
  let scn = small_fleet () in
  let base = Fleet.to_string (Fleet.run ~jobs:1 scn) in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "report at jobs=%d equals jobs=1" jobs)
        base
        (Fleet.to_string (Fleet.run ~jobs scn)))
    [ 2; 3; 4 ]

(* Halving the lookahead doubles the barriers and repartitions simulated
   time into different epochs; every statistic except the epoch count
   must be unchanged, because the merge order is a pure function of
   (ts, client, seq), independent of the boundary set. *)
let test_halved_lookahead () =
  let scn = small_fleet () in
  let fl = Option.get scn.Scenario.fleet in
  let halved =
    { fl with Scenario.lookahead_ms = Some (Scenario.fleet_lookahead_ms fl /. 2.0) }
  in
  let strip r = Fleet.to_string { r with Fleet.epochs = 0; lookahead_s = 0.0 } in
  let base = Fleet.run ~jobs:1 scn in
  let fine = Fleet.run ~jobs:2 { scn with Scenario.fleet = Some halved } in
  check Alcotest.string "halved lookahead reproduces every statistic" (strip base)
    (strip fine);
  chk_bool "finer partition takes at least as many epochs" true
    (fine.Fleet.epochs >= base.Fleet.epochs)

(* Generated fleets: 1-6 clients, some on their own links, running
   generated programs of unequal length. A client on a slow link, or one
   whose workloads finished early, has nothing due for many epochs, so
   the epoch loop skips its engine; the reports must still be identical
   at every worker count and, but for the epoch count, at half the
   lookahead. *)
let fleet_spec =
  { Wirgen.default with Wirgen.name = "fleet"; file_blocks = (4, 48); passes = (1, 5) }

let fleet_gen =
  let open QCheck2.Gen in
  let link =
    map2
      (fun latency_ms bandwidth_mb_per_s -> { Scenario.latency_ms; bandwidth_mb_per_s })
      (oneofl [ 1.0; 2.0; 5.0; 20.0; 50.0 ])
      (oneofl [ 5.0; 20.0; 100.0 ])
  in
  let* clients = int_range 1 6 in
  let* links = list_size (int_range 0 clients) (pair (int_range 0 (clients - 1)) link) in
  let* net = link in
  let* nwld = int_range 1 3 in
  let* corpus_seed = int_bound 10_000 in
  let* seed = int_bound 10_000 in
  let* shared = int_range 0 3 in
  let* cache_blocks = int_range 8 64 in
  let+ server_cache_blocks = int_range 4 64 in
  let programs = Wirgen.corpus fleet_spec ~seed:corpus_seed ~count:nwld in
  let slots = List.fold_left (fun n p -> n + Wir.file_count p) 0 programs in
  Scenario.make ~seed ~cache_blocks
    ~fleet:
      (Scenario.fleet ~shared_files:(min shared slots)
         ~links:(List.sort_uniq (fun (a, _) (b, _) -> compare a b) links)
         ~clients ~server_cache_blocks ~latency_ms:net.Scenario.latency_ms
         ~bandwidth_mb_per_s:net.Scenario.bandwidth_mb_per_s ())
    (List.map (Scenario.inline_workload ~smart:false) programs)

let qcheck_generated_fleets =
  qcheck ~count:40 "generated fleets: identical at jobs 1/2/3 and at half lookahead"
    fleet_gen (fun scn ->
      let base = Fleet.run ~jobs:1 scn in
      let same jobs = Fleet.to_string (Fleet.run ~jobs scn) = Fleet.to_string base in
      let fl = Option.get scn.Scenario.fleet in
      let halved =
        { fl with Scenario.lookahead_ms = Some (Scenario.fleet_lookahead_ms fl /. 2.0) }
      in
      let strip r = Fleet.to_string { r with Fleet.epochs = 0; lookahead_s = 0.0 } in
      same 2 && same 3
      && strip (Fleet.run ~jobs:1 { scn with Scenario.fleet = Some halved }) = strip base)

let test_report_sanity () =
  let r = Fleet.run ~jobs:2 (small_fleet ()) in
  chk_int "one stats row per client" 4 (Array.length r.Fleet.client_stats);
  let remote =
    Array.fold_left (fun a c -> a + c.Fleet.remote_requests) 0 r.Fleet.client_stats
  in
  chk_bool "shared file generates remote requests" true (remote > 0);
  chk_int "server sees every remote request" remote r.Fleet.server_requests;
  chk_bool "some server hits" true (r.Fleet.server_hits > 0);
  chk_bool "events counted" true (r.Fleet.events > 0);
  chk_bool "makespan positive" true (r.Fleet.makespan_s > 0.0);
  Array.iter
    (fun c ->
      chk_bool "client finished" true (c.Fleet.finish_s > 0.0);
      chk_bool "client finished within makespan" true
        (c.Fleet.finish_s <= r.Fleet.makespan_s))
    r.Fleet.client_stats

let test_no_fleet_rejected () =
  let scn = Scenario.make ~seed:0 ~cache_blocks:64 [ Scenario.workload "read60" ] in
  match Fleet.run ~jobs:1 scn with
  | _ -> Alcotest.fail "fleet run without a fleet section was not rejected"
  | exception Invalid_argument msg ->
    chk_bool "names the missing section" true (contains_sub ~sub:"fleet" msg)

let test_shared_files_bound () =
  let scn = small_fleet () in
  let fl = Option.get scn.Scenario.fleet in
  (* The two readN workloads provide two file slots; ask for three. *)
  let scn = { scn with Scenario.fleet = Some { fl with Scenario.shared_files = 3 } } in
  match Fleet.run ~jobs:1 scn with
  | _ -> Alcotest.fail "out-of-range shared_files was not rejected"
  | exception Invalid_argument msg ->
    chk_bool "names shared_files" true (contains_sub ~sub:"shared_files" msg)

(* {2 Observability} *)

let test_metrics_label () =
  check Alcotest.string "label rendering" "x{client=3,disk=0}"
    (Metrics.label "x" [ ("client", "3"); ("disk", "0") ]);
  check Alcotest.string "no labels, no braces" "x" (Metrics.label "x" [])

let test_fleet_gauges () =
  let sink = Obs.Sink.create ~backend:Obs.Sink.Null () in
  let r = Fleet.run ~jobs:2 ~obs:sink (small_fleet ()) in
  let m = Obs.Sink.metrics sink in
  let v name =
    match Metrics.gauge_value m name with
    | Some v -> v
    | None -> Alcotest.fail ("missing gauge " ^ name)
  in
  (* Per-client labelled instances… *)
  let per_client name field =
    Array.iteri
      (fun i c ->
        chk_float
          (Printf.sprintf "%s{client=%d}" name i)
          (float_of_int (field c))
          (v (Metrics.label name [ ("client", string_of_int i) ])))
      r.Fleet.client_stats
  in
  per_client "fleet.client.remote_requests" (fun c -> c.Fleet.remote_requests);
  per_client "fleet.client.hits" (fun c -> c.Fleet.local_hits);
  (* …and the roll-up equals their sum. *)
  let total field =
    float_of_int (Array.fold_left (fun a c -> a + field c) 0 r.Fleet.client_stats)
  in
  chk_float "roll-up sums the labelled family"
    (total (fun c -> c.Fleet.remote_requests))
    (v "fleet.client.remote_requests");
  chk_float "server request gauge"
    (float_of_int r.Fleet.server_requests)
    (v "fleet.server.requests");
  chk_float "server hit gauge"
    (float_of_int r.Fleet.server_hits)
    (v "fleet.server.hits")

(* {2 The $.fleet scenario section} *)

let test_fleet_roundtrip () =
  let scn = small_fleet () in
  (match Scenario.of_string (Scenario.to_string scn) with
  | Ok scn' -> chk_bool "of_string (to_string t) = t" true (scn = scn')
  | Error msg -> Alcotest.fail msg);
  chk_bool "hash is stable" true
    (String.equal (Scenario.hash scn) (Scenario.hash scn))

let test_no_fleet_serialises_without_fleet () =
  let scn = Scenario.make ~seed:0 ~cache_blocks:64 [ Scenario.workload "read60" ] in
  chk_bool "no fleet key for single-machine scenarios" false
    (contains_sub ~sub:"fleet" (Scenario.to_string scn))

(* Patch the canonical JSON textually and check the strict parser
   rejects it with the offending $.fleet path. *)
let replace ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then Alcotest.fail (Printf.sprintf "pattern %S not found" sub)
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (m - i - n)
    else go (i + 1)
  in
  go 0

let expect_error ~path json =
  match Scenario.of_string json with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected a %s error" path)
  | Error msg ->
    chk_bool (Printf.sprintf "error %S mentions %s" msg path) true
      (contains_sub ~sub:path msg)

let test_fleet_parse_errors () =
  let good = Scenario.to_string (small_fleet ()) in
  expect_error ~path:"$.fleet.clients" (replace ~sub:"\"clients\":4" ~by:"\"clients\":0" good);
  expect_error ~path:"$.fleet"
    (replace ~sub:"\"clients\":4" ~by:"\"clients\":4,\"bogus\":1" good);
  expect_error ~path:"$.fleet.network.latency_ms"
    (replace ~sub:"\"latency_ms\":2" ~by:"\"latency_ms\":0" good);
  expect_error ~path:"$.fleet.lookahead_ms"
    (replace ~sub:"\"network\"" ~by:"\"lookahead_ms\":100,\"network\"" good);
  expect_error ~path:"$.fleet.links"
    (replace ~sub:"\"network\""
       ~by:"\"links\":[{\"client\":9,\"latency_ms\":1,\"bandwidth_mb_per_s\":1}],\"network\""
       good);
  expect_error ~path:"$.fleet.server"
    (replace ~sub:"\"cache_blocks\":64" ~by:"\"cache_blocks\":0" good)

let suites =
  [
    ( "fleet/batch",
      [
        case "push/read/clear round-trip with growth" test_batch_roundtrip;
        qcheck_merge;
        case "merge drains the buffers" test_merge_clears;
      ] );
    ( "fleet/epoch",
      [
        case "boundaries and horizons" test_epoch_boundaries;
        case "index_of is the minimal covering epoch" test_epoch_index_of;
      ] );
    ( "fleet/determinism",
      [
        case "byte-identical at jobs 1/2/3/4" test_jobs_byte_identical;
        case "halved lookahead reproduces all statistics" test_halved_lookahead;
        qcheck_generated_fleets;
        case "report sanity" test_report_sanity;
        case "no fleet section rejected" test_no_fleet_rejected;
        case "shared_files beyond file slots rejected" test_shared_files_bound;
      ] );
    ( "fleet/obs",
      [
        case "label rendering" test_metrics_label;
        case "per-client gauges and roll-ups" test_fleet_gauges;
      ] );
    ( "fleet/scenario",
      [
        case "fleet section round-trips" test_fleet_roundtrip;
        case "single-machine JSON has no fleet key" test_no_fleet_serialises_without_fleet;
        case "strict parse errors carry $.fleet paths" test_fleet_parse_errors;
      ] );
  ]
