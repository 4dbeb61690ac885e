open Acfc_sim
open Acfc_disk
open Tutil

let params_sane () =
  List.iter
    (fun p ->
      chk_bool "capacity positive" true (p.Params.capacity_blocks > 0);
      chk_bool "seek curve ordered" true
        (p.Params.min_seek_ms < p.Params.avg_seek_ms
        && p.Params.avg_seek_ms < p.Params.max_seek_ms))
    [ Params.rz56; Params.rz26 ]

let transfer_time () =
  (* 8 KB at 1.875 MB/s is ~4.17 ms. *)
  let t = Params.transfer_time_s Params.rz56 in
  chk_bool "rz56 transfer" true (Float.abs (t -. 0.004167) < 0.0001);
  let t26 = Params.transfer_time_s Params.rz26 in
  chk_bool "rz26 is faster" true (t26 < t)

let seek_curve () =
  let p = Params.rz56 in
  chk_float "zero distance" 0.0 (Params.seek_time_s p ~distance:0);
  let one = Params.seek_time_s p ~distance:1 in
  chk_bool "single track near min" true
    (Float.abs (one -. (p.Params.min_seek_ms /. 1000.0)) < 0.001);
  let avg = Params.seek_time_s p ~distance:(p.Params.capacity_blocks / 3) in
  chk_bool "avg distance costs avg seek" true
    (Float.abs (avg -. (p.Params.avg_seek_ms /. 1000.0)) < 0.0005);
  let full = Params.seek_time_s p ~distance:p.Params.capacity_blocks in
  chk_bool "capped at max" true (full <= p.Params.max_seek_ms /. 1000.0 +. 1e-9);
  (* Monotone in distance. *)
  let rec check_monotone last = function
    | [] -> ()
    | d :: rest ->
      let s = Params.seek_time_s p ~distance:d in
      chk_bool "monotone seek" true (s >= last);
      check_monotone s rest
  in
  check_monotone 0.0 [ 1; 10; 100; 1000; 10000; 80000 ]

let sequential_is_cheap () =
  (* A sequential run of blocks must cost far less per block than a
     random scatter of the same size. *)
  let run addrs =
    in_sim (fun e ->
        let d = Disk.create e Params.rz56 in
        List.iter (fun a -> Disk.io d Disk.Read ~addr:a) addrs;
        Engine.now e)
  in
  let seq = run (List.init 100 (fun i -> i)) in
  let random = run (List.init 100 (fun i -> (i * 7919) mod 80000)) in
  chk_bool "sequential much cheaper" true (seq *. 2.0 < random)

let service_time_estimate () =
  in_sim (fun e ->
      let d = Disk.create e Params.rz56 in
      (* Head at 0: block 0 is sequential (no seek, no rotation). *)
      let t0 = Disk.service_time d ~addr:0 in
      let expected =
        (Params.rz56.Params.overhead_ms /. 1000.0)
        +. (Params.rz56.Params.seq_rot_factor *. Params.rz56.Params.avg_rot_ms /. 1000.0)
        +. Params.transfer_time_s Params.rz56
      in
      chk_bool "sequential estimate" true (Float.abs (t0 -. expected) < 1e-6);
      let far = Disk.service_time d ~addr:50000 in
      chk_bool "far request costs seek+rotation" true (far > t0 +. 0.010))

let queueing_serialises () =
  let e = Engine.create () in
  let d = Disk.create e Params.rz56 in
  let finish = Array.make 2 0.0 in
  for i = 0 to 1 do
    Engine.spawn e (fun () ->
        Disk.io d Disk.Read ~addr:(i * 40000);
        finish.(i) <- Engine.now e)
  done;
  Engine.run e;
  chk_bool "second waits for first" true (finish.(1) > finish.(0));
  chk_bool "queue wait recorded" true (Disk.total_wait d > 0.0)

let bus_contention () =
  (* Two disks on one bus: concurrent transfers serialise on the bus,
     so the makespan exceeds the no-bus case. *)
  let run ~shared =
    let e = Engine.create () in
    let bus = if shared then Some (Bus.create e ()) else None in
    let mk p = match bus with Some b -> Disk.create e ~bus:b p | None -> Disk.create e p in
    let d1 = mk Params.rz56 and d2 = mk Params.rz26 in
    for i = 0 to 49 do
      Engine.spawn e (fun () -> Disk.io d1 Disk.Read ~addr:i)
    done;
    for i = 0 to 49 do
      Engine.spawn e (fun () -> Disk.io d2 Disk.Read ~addr:i)
    done;
    Engine.run e;
    Engine.now e
  in
  chk_bool "bus adds contention" true (run ~shared:true > run ~shared:false)

let stats_and_validation () =
  in_sim (fun e ->
      let d = Disk.create e Params.rz26 in
      Disk.io d Disk.Read ~addr:0;
      Disk.io d Disk.Write ~addr:1;
      Disk.io d Disk.Read ~addr:2;
      chk_int "reads" 2 (Disk.reads d);
      chk_int "writes" 1 (Disk.writes d);
      (* The head parks at 0, so the very first request is sequential
         too. *)
      chk_int "sequential hits" 3 (Disk.sequential_hits d);
      chk_bool "busy time positive" true (Disk.busy_time d > 0.0);
      Disk.reset_stats d;
      chk_int "reset" 0 (Disk.reads d);
      Alcotest.check_raises "address range"
        (Invalid_argument "Disk.io(RZ26): address -1 out of range") (fun () ->
          Disk.io d Disk.Read ~addr:(-1)))

let deterministic_without_rng () =
  let run () =
    in_sim (fun e ->
        let d = Disk.create e Params.rz56 in
        List.iter (fun a -> Disk.io d Disk.Read ~addr:a) [ 5; 900; 17; 42000 ];
        Engine.now e)
  in
  chk_float "reproducible" (run ()) (run ())

let rng_adds_variance () =
  let run seed =
    in_sim (fun e ->
        let d = Disk.create e ~rng:(Rng.create seed) Params.rz56 in
        List.iter (fun a -> Disk.io d Disk.Read ~addr:a) [ 5; 900; 17; 42000 ];
        Engine.now e)
  in
  chk_bool "different seeds differ" true (run 1 <> run 2)

let base_cases =
      [
        case "parameter sanity" params_sane;
        case "transfer time" transfer_time;
        case "seek curve" seek_curve;
        case "sequential vs random cost" sequential_is_cheap;
        case "service time estimate" service_time_estimate;
        case "queueing" queueing_serialises;
        case "bus contention" bus_contention;
        case "stats and validation" stats_and_validation;
        case "deterministic without rng" deterministic_without_rng;
        case "rng variance" rng_adds_variance;
      ]

let completion_order ~sched =
  let e = Engine.create () in
  let d = Disk.create e ~sched Params.rz56 in
  let order = ref [] in
  (* First request occupies the drive; the rest arrive while it is busy
     and are dispatched per discipline. *)
  Engine.spawn e (fun () -> Disk.io d Disk.Read ~addr:40000);
  List.iteri
    (fun i addr ->
      Engine.spawn e (fun () ->
          Engine.delay e (0.001 *. float_of_int (i + 1));
          Disk.io d Disk.Read ~addr;
          order := addr :: !order))
    [ 70000; 45000; 60000 ];
  Engine.run e;
  List.rev !order

let fcfs_order () =
  chk_bool "FCFS serves in arrival order" true
    (completion_order ~sched:Disk.Fcfs = [ 70000; 45000; 60000 ])

let scan_order () =
  (* Head is at 40001 after the first request, sweeping up: nearest
     first in the sweep direction. *)
  chk_bool "SCAN serves by position" true
    (completion_order ~sched:Disk.Scan = [ 45000; 60000; 70000 ])

let scan_reverses_at_end () =
  let e = Engine.create () in
  let d = Disk.create e ~sched:Disk.Scan Params.rz56 in
  let order = ref [] in
  Engine.spawn e (fun () -> Disk.io d Disk.Read ~addr:50000);
  List.iteri
    (fun i addr ->
      Engine.spawn e (fun () ->
          Engine.delay e (0.001 *. float_of_int (i + 1));
          Disk.io d Disk.Read ~addr;
          order := addr :: !order))
    [ 10000; 60000; 5000 ];
  Engine.run e;
  (* Sweep up from ~50000 takes 60000, then reverses for 10000, 5000. *)
  chk_bool "elevator reversal" true (List.rev !order = [ 60000; 10000; 5000 ]);
  chk_int "queue drained" 0 (Disk.queue_length d)

let scan_same_ios () =
  (* Scheduling reorders service but never changes what is served. *)
  let run sched =
    in_sim (fun e ->
        let d = Disk.create e ~sched Params.rz56 in
        List.iter (fun a -> Disk.io d Disk.Read ~addr:a) [ 9; 1; 5; 3 ];
        Disk.reads d)
  in
  chk_int "same count" (run Disk.Fcfs) (run Disk.Scan)

(* {2 Two ways to issue a request}

   Random requests on two drives sharing a bus, under FCFS and under
   SCAN, each issued at its arrival either by a fiber through the
   blocking [Disk.io] or by a job through [Disk.submit] with a
   completion callback. Both forms must complete every request at the
   same instant and in the same order, process the same events, and
   leave the same drive and bus statistics and the same [Disk_io]
   trace. A third drive with no positioning time and a near-zero
   transfer time completes some requests inside their own submission
   or start event. *)

type request = { drive : int; arrival : int; addr : int; blocks : int; write : bool }

let instant =
  {
    Params.rz26 with
    Params.name = "instant";
    min_seek_ms = 0.0;
    avg_seek_ms = 0.0;
    max_seek_ms = 0.0;
    avg_rot_ms = 0.0;
    overhead_ms = 0.0;
    transfer_mb_per_s = 1e30;
  }

let requests_gen =
  let open QCheck2.Gen in
  let request =
    map
      (fun (drive, arrival, addr, (blocks, write)) -> { drive; arrival; addr; blocks; write })
      (quad (int_range 0 2) (int_range 0 12) (int_range 0 60_000)
         (pair (int_range 1 4) bool))
  in
  pair bool (list_size (int_range 1 25) request)

let run_requests ~by_job (scan, requests) =
  let e = Engine.create () in
  let records = ref [] in
  let sink =
    Acfc_obs.Sink.create ~backend:(Acfc_obs.Sink.Custom (fun r -> records := r :: !records)) ()
  in
  Acfc_obs.Sink.set_clock sink (fun () -> Engine.now e);
  let bus = Bus.create e () in
  let sched = if scan then Disk.Scan else Disk.Fcfs in
  let rng = Rng.create 11 in
  let drives =
    Array.map
      (fun p -> Disk.create e ~bus ~rng:(Rng.split rng) ~sched p)
      [| Params.rz56; Params.rz26; instant |]
  in
  Array.iter (fun d -> Disk.set_obs d (Some sink)) drives;
  Bus.set_obs bus (Some sink);
  let log = ref [] in
  let completed i = log := (i, Engine.now e) :: !log in
  List.iteri
    (fun i r ->
      let d = drives.(r.drive) and kind = if r.write then Disk.Write else Disk.Read in
      let issue () =
        if by_job then
          Engine.schedule_now e
            (Engine.job (fun () ->
                 Disk.submit d kind ~addr:r.addr ~blocks:r.blocks ~tag:i completed))
        else
          Engine.spawn e (fun () ->
              Disk.io ~blocks:r.blocks d kind ~addr:r.addr;
              completed i)
      in
      Engine.schedule e ~at:(0.002 *. float_of_int r.arrival) issue)
    requests;
  Engine.run e;
  let stats d =
    ( (Disk.reads d, Disk.writes d, Disk.sequential_hits d, Disk.blocks_transferred d),
      (Disk.busy_time d, Disk.total_wait d, Disk.queue_length d) )
  in
  ( List.rev !log,
    Engine.events_processed e,
    Array.map stats drives,
    Acfc_obs.Json.to_string
      (Acfc_obs.Metrics.snapshot (Acfc_obs.Sink.metrics sink) ~now:(Engine.now e)),
    List.rev !records )

let job_form_matches_fiber_form =
  qcheck "a request issued by a job completes where a fiber's io does" ~count:300
    requests_gen (fun case ->
      let (log, _, _, _, _) as fiber = run_requests ~by_job:false case in
      List.length log = List.length (snd case) && run_requests ~by_job:true case = fiber)

let suites =
  [
    ( "disk",
      base_cases
      @ [
          case "FCFS arrival order" fcfs_order;
          case "SCAN positional order" scan_order;
          case "SCAN reverses at the end" scan_reverses_at_end;
          case "scheduling preserves I/O counts" scan_same_ios;
          job_form_matches_fiber_form;
        ] );
  ]
