module Block = Acfc_core.Block
module Cache = Acfc_core.Cache
module Pid = Acfc_core.Pid
module Config = Acfc_core.Config
module Params = Acfc_disk.Params
module Engine = Acfc_sim.Engine
module Epoch = Acfc_sim.Epoch
module Rng = Acfc_sim.Rng
module Wir = Acfc_wir.Wir
module Scenario = Acfc_scenario.Scenario
module Pool = Acfc_par.Pool
module Team = Acfc_par.Team
module Metrics = Acfc_obs.Metrics

(* Conservative parallel discrete-event simulation of a fleet: N client
   machines (each a full engine + columnar cache + analytic local
   disks) in front of one shared server cache. Clients advance
   independently inside an epoch of one lookahead; requests cross to
   the server only at epoch barriers, merged in (send time, client id,
   seq) order — a pure function of simulation state, so the result is
   byte-identical at every worker count.

   Why the epoch length is safe: with lookahead L <= 2 * min link
   latency, a request sent in epoch k (send time ts > boundary k)
   cannot be answered before ts + 2*latency > boundary k + L =
   boundary (k+1) — i.e. never within its own epoch, so processing
   requests at the barrier after the epoch can never deliver a
   response into simulated time a client has already passed. *)

type client = {
  id : int;
  engine : Engine.t;
  cache : Cache.t;
  disk_free : float array; (* per local disk: next instant it is idle *)
  disk_svc : float array; (* constant service time per request *)
  wdisk : int array; (* workload index -> local disk index *)
  hit_cost : float;
  shared_files : int;
  outbox : Batch.t; (* the owning domain's SPSC buffer *)
  mutable workloads : workload array;
  mutable seq : int;
  mutable remote_requests : int;
  mutable local_disk_reads : int;
  mutable finished : int; (* workloads that ran to completion *)
  mutable finished_at : float;
}

(* A workload replays its stream of packed keys as one callback, built
   once, that the engine runs at the workload's start and at each of
   its wake times (see [replay]). *)
and workload = {
  cl : client;
  w : int;
  pid : Pid.t;
  stream : int array;
  mutable pos : int; (* the next reference *)
  mutable job : Engine.job; (* runs [replay] on this workload *)
}

type server = {
  s_cache : Cache.t;
  s_svc : float;
  mutable s_free : float;
  mutable s_hits : int;
  mutable s_busy : float;
  mutable s_wait : float;
  req_by_client : int array;
  hit_by_client : int array;
  (* Merge scratch: all outboxes gathered into columns, then an index
     permutation sorted by (ts, client, seq). Grown to the high-water
     mark once; steady epochs allocate nothing. *)
  mutable m_ts : float array;
  mutable m_client : int array;
  mutable m_seq : int array;
  mutable m_wld : int array;
  mutable m_blk : int array;
  mutable m_order : int array;
  mutable m_len : int;
}

type client_stats = {
  local_hits : int;
  local_misses : int;
  remote_requests : int;
  server_hits : int;
  local_disk_reads : int;
  events : int;
  finish_s : float;
}

type report = {
  client_stats : client_stats array;
  epochs : int;
  lookahead_s : float;
  events : int;
  makespan_s : float;
  server_requests : int;
  server_hits : int;
  server_busy_s : float;
  server_wait_s : float;
}

(* Local disks are modelled analytically (constant FCFS service time
   from the drive parameters) rather than with the full bus/seek
   model: the fleet's object of study is cache interaction and server
   queueing, and a constant-service queue keeps the per-miss cost one
   float max instead of a fiber round-trip through Disk. *)
let disk_service_s (p : Params.t) =
  ((p.Params.overhead_ms +. p.Params.avg_seek_ms +. p.Params.avg_rot_ms) /. 1000.0)
  +. Params.transfer_time_s p

(* [Engine.delay]'s rules: [true] when the replay goes on at once. *)
let[@inline] wait wl dt =
  if dt < 0.0 then invalid_arg "Fleet: negative delay";
  if dt = 0.0 then true
  else begin
    let eng = wl.cl.engine in
    Engine.schedule_job eng ~at:(Engine.now eng +. dt) wl.job;
    false
  end

(* Replay references until the workload must wait, then schedule its
   job at its wake time exactly as [Engine.delay dt] wakes a fiber: at
   [now +. dt], with no event for a zero delay and a negative delay
   refused, so the events and their order are a delaying fiber's
   (DESIGN §11). On a remote miss, push the request and return:
   [serve] schedules the job at the response time. A workload has at
   most one wait pending, so one job each. *)
let rec replay wl =
  let cl = wl.cl in
  let eng = cl.engine in
  let i = wl.pos in
  if i = Array.length wl.stream then begin
    cl.finished <- cl.finished + 1;
    if Engine.now eng > cl.finished_at then cl.finished_at <- Engine.now eng
  end
  else begin
    let p = wl.stream.(i) in
    wl.pos <- i + 1;
    match Cache.read_packed cl.cache ~pid:wl.pid p with
    | `Hit -> if wait wl cl.hit_cost then replay wl
    | `Miss ->
      if Block.packed_file p < cl.shared_files then begin
        let seq = cl.seq in
        cl.seq <- seq + 1;
        cl.remote_requests <- cl.remote_requests + 1;
        Batch.push cl.outbox ~ts:(Engine.now eng) ~client:cl.id ~seq ~wld:wl.w ~blk:p
      end
      else begin
        cl.local_disk_reads <- cl.local_disk_reads + 1;
        let d = cl.wdisk.(wl.w) in
        let now = Engine.now eng in
        let start = if cl.disk_free.(d) > now then cl.disk_free.(d) else now in
        let fin = start +. cl.disk_svc.(d) in
        cl.disk_free.(d) <- fin;
        if wait wl (fin -. now) then replay wl
      end
  end

let build_client ~config ~disk_svc ~wdisk ~hit_cost ~shared_files ~programs ~offsets
    ~fixed ~rngs ~outbox id =
  let nwld = Array.length programs in
  let cl =
    {
      id;
      engine = Engine.create ();
      cache = Cache.create config;
      disk_free = Array.make (Array.length disk_svc) 0.0;
      disk_svc;
      wdisk;
      hit_cost;
      shared_files;
      outbox;
      workloads = [||];
      seq = 0;
      remote_requests = 0;
      local_disk_reads = 0;
      finished = 0;
      finished_at = 0.0;
    }
  in
  cl.workloads <-
    Array.init nwld (fun w ->
        let wl =
          {
            cl;
            w;
            pid = Pid.make w;
            stream =
              (match fixed.(w) with
              | Some stream -> stream
              | None ->
                Wir.packed_references ~rng:rngs.(w) ~file_offset:offsets.(w) programs.(w));
            pos = 0;
            job = Engine.job ignore;
          }
        in
        wl.job <- Engine.job (fun () -> replay wl);
        (* Queued now, in workload order, through the ready ring, as
           [Engine.spawn] queues a fiber's start. *)
        Engine.schedule_job cl.engine ~at:0.0 wl.job;
        wl);
  cl

(* {2 Server shard} *)

let make_server fleet nclients =
  {
    s_cache =
      Cache.create
        (Config.make
           ~capacity_blocks:fleet.Scenario.server.Scenario.server_cache_blocks ());
    s_svc = disk_service_s fleet.Scenario.server.Scenario.server_drive;
    s_free = 0.0;
    s_hits = 0;
    s_busy = 0.0;
    s_wait = 0.0;
    req_by_client = Array.make nclients 0;
    hit_by_client = Array.make nclients 0;
    m_ts = Array.make 256 0.0;
    m_client = Array.make 256 0;
    m_seq = Array.make 256 0;
    m_wld = Array.make 256 0;
    m_blk = Array.make 256 0;
    m_order = Array.make 256 0;
    m_len = 0;
  }

let server_reserve s total =
  if total > Array.length s.m_ts then begin
    let cap = ref (Array.length s.m_ts) in
    while !cap < total do
      cap := 2 * !cap
    done;
    s.m_ts <- Array.make !cap 0.0;
    s.m_client <- Array.make !cap 0;
    s.m_seq <- Array.make !cap 0;
    s.m_wld <- Array.make !cap 0;
    s.m_blk <- Array.make !cap 0;
    s.m_order <- Array.make !cap 0
  end

(* Drain every outbox into the merge columns. Gather order does not
   matter — the sort below is total on (ts, client, seq). *)
let gather s outboxes =
  let total = Array.fold_left (fun acc b -> acc + Batch.length b) 0 outboxes in
  server_reserve s total;
  let k = ref 0 in
  Array.iter
    (fun b ->
      for i = 0 to Batch.length b - 1 do
        s.m_ts.(!k) <- Batch.ts b i;
        s.m_client.(!k) <- Batch.client b i;
        s.m_seq.(!k) <- Batch.seq b i;
        s.m_wld.(!k) <- Batch.wld b i;
        s.m_blk.(!k) <- Batch.blk b i;
        incr k
      done;
      Batch.clear b)
    outboxes;
  s.m_len <- total

let[@inline] req_before s i j =
  s.m_ts.(i) < s.m_ts.(j)
  || s.m_ts.(i) = s.m_ts.(j)
     && (s.m_client.(i) < s.m_client.(j)
        || (s.m_client.(i) = s.m_client.(j) && s.m_seq.(i) < s.m_seq.(j)))

(* In-place heapsort of m_order[0..n): Array.sort cannot sort a slice
   of the persistent scratch array, and this runs at barrier rate, so
   sorting without allocating beats stdlib convenience. (ts, client,
   seq) triples are unique — seq is a per-client counter — so the
   order is total and heapsort's instability is irrelevant. *)
let sort_order s n =
  let o = s.m_order in
  (* Max-heap sift-down over o.[root..last]. *)
  let sift root last =
    let r = ref root in
    let stop = ref false in
    while not !stop do
      let child = (2 * !r) + 1 in
      if child > last then stop := true
      else begin
        let c =
          if child < last && req_before s o.(child) o.(child + 1) then child + 1
          else child
        in
        if req_before s o.(!r) o.(c) then begin
          let tmp = o.(!r) in
          o.(!r) <- o.(c);
          o.(c) <- tmp;
          r := c
        end
        else stop := true
      end
    done
  in
  for root = (n - 2) / 2 downto 0 do
    sift root (n - 1)
  done;
  for last = n - 1 downto 1 do
    let tmp = o.(0) in
    o.(0) <- o.(last);
    o.(last) <- tmp;
    sift 0 (last - 1)
  done

(* Process one barrier's worth of requests in (ts, client, seq) order:
   request arrival = send time + link latency; a server miss queues
   FCFS on the server drive; the response lands back at the client
   after another latency plus the block's transmission time. The
   response schedules the requesting workload's job at that time (one
   event) — safe here because no worker is running between barriers,
   and always in that client's future (see the lookahead argument
   above). *)
let serve s clients lat xfer =
  let n = s.m_len in
  for i = 0 to n - 1 do
    s.m_order.(i) <- i
  done;
  if n > 1 then sort_order s n;
  let pid = Pid.make 0 in
  for k = 0 to n - 1 do
    let i = s.m_order.(k) in
    let c = s.m_client.(i) in
    let arrival = s.m_ts.(i) +. lat.(c) in
    s.req_by_client.(c) <- s.req_by_client.(c) + 1;
    let done_at =
      match Cache.read_packed s.s_cache ~pid s.m_blk.(i) with
      | `Hit ->
        s.s_hits <- s.s_hits + 1;
        s.hit_by_client.(c) <- s.hit_by_client.(c) + 1;
        arrival
      | `Miss ->
        let start = if s.s_free > arrival then s.s_free else arrival in
        s.s_wait <- s.s_wait +. (start -. arrival);
        s.s_busy <- s.s_busy +. s.s_svc;
        let fin = start +. s.s_svc in
        s.s_free <- fin;
        fin
    in
    let back = done_at +. lat.(c) +. xfer.(c) in
    let cl = clients.(c) in
    Engine.schedule_job cl.engine ~at:back cl.workloads.(s.m_wld.(i)).job
  done;
  s.m_len <- 0

(* {2 The epoch loop} *)

let programs_of scn =
  let scn = Scenario.inline_workloads scn in
  let workloads = Array.of_list scn.Scenario.workloads in
  let programs =
    Array.map
      (fun w ->
        match w.Scenario.app with
        | Scenario.Inline p -> p
        | Scenario.Named _ -> assert false (* inline_workloads post-condition *))
      workloads
  in
  let wdisk = Array.map (fun w -> w.Scenario.disk) workloads in
  (programs, wdisk)

let run ?jobs ?obs ?monitor scn =
  let fleet =
    match scn.Scenario.fleet with
    | Some f -> f
    | None -> invalid_arg "Fleet.run: scenario has no fleet section"
  in
  let programs, wdisk = programs_of scn in
  let nwld = Array.length programs in
  (* Workload w's program uses file slots [offsets.(w), offsets.(w) +
     file_count). Slots below [shared_files] are server-backed and, by
     construction, the same slot names the same shared file on every
     client; the rest are client-private. *)
  let offsets = Array.make nwld 0 in
  let total_files = ref 0 in
  Array.iteri
    (fun w p ->
      offsets.(w) <- !total_files;
      total_files := !total_files + Wir.file_count p)
    programs;
  if fleet.Scenario.shared_files > !total_files then
    invalid_arg
      (Printf.sprintf "Fleet.run: shared_files %d exceeds the %d workload file slots"
         fleet.Scenario.shared_files !total_files);
  let nclients = fleet.Scenario.clients in
  let jobs = match jobs with Some j when j >= 1 -> j | _ -> Pool.default_jobs () in
  let workers = min jobs nclients in
  let lat =
    Array.init nclients (fun c ->
        (Scenario.client_link fleet c).Scenario.latency_ms /. 1000.0)
  in
  let xfer =
    Array.init nclients (fun c ->
        float_of_int Params.block_bytes
        /. ((Scenario.client_link fleet c).Scenario.bandwidth_mb_per_s *. 1e6))
  in
  let lookahead_s = Scenario.fleet_lookahead_ms fleet /. 1000.0 in
  let ep = Epoch.make ~start:0.0 ~length:lookahead_s in
  let hit_cost = Option.value scn.Scenario.hit_cost ~default:0.0006 in
  let disk_svc =
    Array.of_list (List.map (fun d -> disk_service_s d.Scenario.params) scn.Scenario.disks)
  in
  (* All RNG splitting happens here, on the coordinating domain, in one
     fixed order — worker count must never change a draw. *)
  let base = Rng.create scn.Scenario.seed in
  let rngs = Array.make nclients [||] in
  for c = 0 to nclients - 1 do
    let crng = Rng.split base in
    let per_wld = Array.make nwld crng in
    for w = 0 to nwld - 1 do
      per_wld.(w) <- Rng.split crng
    done;
    rngs.(c) <- per_wld
  done;
  (* A program that draws nothing from its RNG yields the same stream on
     every client: walk it once, here, and let every client read that
     one array. Replay only reads a stream, so domains can share it. *)
  let fixed =
    Array.mapi
      (fun w p ->
        if Wir.draws_rng p then None
        else Some (Wir.packed_references ~file_offset:offsets.(w) p))
      programs
  in
  let outboxes = Array.init workers (fun _ -> Batch.create ()) in
  let slots = Array.make nclients None in
  Team.with_team ~workers @@ fun team ->
  (* Build clients where they will live: worker [wid] owns clients
     [wid, wid + workers, …] for the whole run, so engines, their
     captured effect continuations and their outbox stay pinned to one
     domain. The streams of programs that draw from their RNG are
     walked there too, in parallel. *)
  Team.run team (fun wid ->
      let c = ref wid in
      while !c < nclients do
        slots.(!c) <-
          Some
            (build_client ~config:scn.Scenario.config ~disk_svc ~wdisk ~hit_cost
               ~shared_files:fleet.Scenario.shared_files ~programs ~offsets ~fixed
               ~rngs:rngs.(!c) ~outbox:outboxes.(wid) !c);
        c := !c + workers
      done);
  let clients =
    Array.map (function Some c -> c | None -> assert false (* all built *)) slots
  in
  let server = make_server fleet nclients in
  (match obs with
  | None -> ()
  | Some sink ->
    let m = Acfc_obs.Sink.metrics sink in
    Array.iter
      (fun cl ->
        let g name read =
          Metrics.gauge m
            (Metrics.label name [ ("client", string_of_int cl.id) ])
            read
        in
        g "fleet.client.hits" (fun () -> float_of_int (Cache.hits cl.cache));
        g "fleet.client.misses" (fun () -> float_of_int (Cache.misses cl.cache));
        g "fleet.client.remote_requests" (fun () ->
            float_of_int cl.remote_requests);
        g "fleet.client.disk_reads" (fun () -> float_of_int cl.local_disk_reads);
        g "fleet.client.events" (fun () ->
            float_of_int (Engine.events_processed cl.engine)))
      clients;
    (* Global roll-ups: the sum of every labelled instance above. *)
    Metrics.gauge_sum m "fleet.client.hits";
    Metrics.gauge_sum m "fleet.client.misses";
    Metrics.gauge_sum m "fleet.client.remote_requests";
    Metrics.gauge_sum m "fleet.client.disk_reads";
    Metrics.gauge_sum m "fleet.client.events";
    Metrics.gauge m "fleet.server.requests" (fun () ->
        float_of_int (Array.fold_left ( + ) 0 server.req_by_client));
    Metrics.gauge m "fleet.server.hits" (fun () -> float_of_int server.s_hits);
    Metrics.gauge m "fleet.server.disk_busy_s" (fun () -> server.s_busy);
    Metrics.gauge m "fleet.server.queue_wait_s" (fun () -> server.s_wait));
  (* Monitor samples are taken at epoch barriers, after [serve]: the
     worker domains are parked inside [Team.run] between epochs, so the
     coordinator reads every cross-domain gauge race-free, and the
     sample perturbs neither event counts nor the schedule. *)
  let monitor =
    match (monitor, obs) with
    | None, _ -> None
    | Some (p, every), Some sink ->
      Some (p, Acfc_obs.Sink.metrics sink, every, ref 0.0)
    | Some _, None ->
      invalid_arg "Fleet.run: a monitor needs an observability sink (obs)"
  in
  let monitor_sample now =
    match monitor with
    | Some (p, metrics, every, next) when now >= !next ->
      Acfc_obs.Monitor.sample p ~metrics ~now;
      next := now +. every
    | _ -> ()
  in
  let total = nclients * nwld in
  let finished () = Array.fold_left (fun acc c -> acc + c.finished) 0 clients in
  let k = ref 0 in
  let epochs = ref 0 in
  while finished () < total do
    let h = Epoch.horizon ep !k in
    (* An engine with nothing due by [h] is not run: [run_until] would
       process no event, and its clock, left behind the horizon, stays
       before every response [serve] can schedule on it, which lands
       past [h] by the lookahead argument above. *)
    Team.run team (fun wid ->
        let c = ref wid in
        while !c < nclients do
          let e = clients.(!c).engine in
          if Engine.next_event_time e <= h then Engine.run_until e h;
          c := !c + workers
        done);
    incr epochs;
    gather server outboxes;
    serve server clients lat xfer;
    monitor_sample h;
    if finished () < total then begin
      (* Jump over epochs in which no engine has work (all responses
         are scheduled by now, so the minimum is exact). *)
      let next = ref Float.infinity in
      for c = 0 to nclients - 1 do
        let t = Engine.next_event_time clients.(c).engine in
        if t < !next then next := t
      done;
      if !next = Float.infinity then
        failwith
          "Fleet.run: fleet stalled — workloads unfinished but no engine has a \
           pending event";
      let nk = Epoch.index_of ep !next in
      k := if nk > !k + 1 then nk else !k + 1
    end
  done;
  let client_stats =
    Array.map
      (fun cl ->
        {
          local_hits = Cache.hits cl.cache;
          local_misses = Cache.misses cl.cache;
          remote_requests = cl.remote_requests;
          server_hits = server.hit_by_client.(cl.id);
          local_disk_reads = cl.local_disk_reads;
          events = Engine.events_processed cl.engine;
          finish_s = cl.finished_at;
        })
      clients
  in
  let makespan =
    Array.fold_left (fun acc (c : client_stats) -> Float.max acc c.finish_s) 0.0
      client_stats
  in
  (match monitor with
  | None -> ()
  | Some (p, metrics, _, _) ->
    Acfc_obs.Monitor.sample p ~metrics ~now:makespan;
    Acfc_obs.Monitor.finish p ~now:makespan);
  {
    client_stats;
    epochs = !epochs;
    lookahead_s;
    events = Array.fold_left (fun acc (c : client_stats) -> acc + c.events) 0 client_stats;
    makespan_s = makespan;
    server_requests = Array.fold_left ( + ) 0 server.req_by_client;
    server_hits = server.s_hits;
    server_busy_s = server.s_busy;
    server_wait_s = server.s_wait;
  }

(* {2 Report rendering}

   Deliberately free of anything worker-dependent (no jobs count, no
   wall time): this string is the byte-identity witness the golden
   test and CI diff at --jobs 1 vs 4. *)

let pp ppf r =
  let n = Array.length r.client_stats in
  Fmt.pf ppf "fleet: %d client%s, lookahead %.3f ms, %d epoch%s@." n
    (if n = 1 then "" else "s")
    (r.lookahead_s *. 1000.0) r.epochs
    (if r.epochs = 1 then "" else "s");
  Fmt.pf ppf "client  local-hit  local-miss  remote-req  srv-hit  disk-read   finish-s@.";
  Array.iteri
    (fun i c ->
      Fmt.pf ppf "%6d  %9d  %10d  %10d  %7d  %9d  %9.4f@." i c.local_hits
        c.local_misses c.remote_requests c.server_hits c.local_disk_reads c.finish_s)
    r.client_stats;
  Fmt.pf ppf "server: %d requests, %d hits, %d misses, disk busy %.4f s, queue wait %.4f s@."
    r.server_requests r.server_hits
    (r.server_requests - r.server_hits)
    r.server_busy_s r.server_wait_s;
  let hits = Array.fold_left (fun a c -> a + c.local_hits) 0 r.client_stats in
  let misses = Array.fold_left (fun a c -> a + c.local_misses) 0 r.client_stats in
  let ratio =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  Fmt.pf ppf "total: %d events, makespan %.4f s, local hit ratio %.4f@." r.events
    r.makespan_s ratio

let to_string r = Fmt.str "%a" pp r

(* {2 Test hooks} *)

module For_tests = struct
  (* The exact barrier path — [gather] then [sort_order] — run on a
     throwaway scratch, so the property suite can check the merge order
     is a pure function of (ts, client, seq) however the requests are
     distributed over the buffers. *)
  let merge outboxes =
    let s =
      {
        s_cache = Cache.create (Config.make ~capacity_blocks:1 ());
        s_svc = 0.0;
        s_free = 0.0;
        s_hits = 0;
        s_busy = 0.0;
        s_wait = 0.0;
        req_by_client = [||];
        hit_by_client = [||];
        m_ts = Array.make 1 0.0;
        m_client = Array.make 1 0;
        m_seq = Array.make 1 0;
        m_wld = Array.make 1 0;
        m_blk = Array.make 1 0;
        m_order = Array.make 1 0;
        m_len = 0;
      }
    in
    gather s outboxes;
    let n = s.m_len in
    for i = 0 to n - 1 do
      s.m_order.(i) <- i
    done;
    if n > 1 then sort_order s n;
    List.init n (fun k ->
        let i = s.m_order.(k) in
        (s.m_ts.(i), s.m_client.(i), s.m_seq.(i), s.m_wld.(i), s.m_blk.(i)))
end
