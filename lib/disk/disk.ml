open Acfc_sim
module Obs = Acfc_obs

type kind = Read | Write

type sched = Fcfs | Scan

type waiter = { enqueued_at : float; resume : unit -> unit }

type obs_state = {
  sink : Obs.Sink.t;
  h_service : Obs.Metrics.histogram;  (* seconds per request, in service *)
  h_wait : Obs.Metrics.histogram;  (* seconds queued before service *)
}

type t = {
  engine : Engine.t;
  params : Params.t;
  bus : Bus.t option;
  rng : Rng.t option;
  sched : sched;
  mutable obs : obs_state option;
  mutable busy : bool;
  queue : waiter Sched_queue.t;  (* indexed by discipline; see Sched_queue *)
  mutable head : int;  (* block address after the last transfer *)
  mutable reads : int;
  mutable writes : int;
  mutable sequential_hits : int;
  mutable blocks_transferred : int;
  (* Busy time and queueing delay, in one unboxed column: a mutable
     float field in this mixed record would box on every update. *)
  acct : float array;
}

let busy_i = 0

let wait_i = 1

let create engine ?bus ?rng ?(sched = Fcfs) params =
  {
    engine;
    params;
    bus;
    rng;
    sched;
    obs = None;
    busy = false;
    queue =
      Sched_queue.create
        (match sched with Fcfs -> Sched_queue.Fcfs | Scan -> Sched_queue.Scan);
    head = 0;
    reads = 0;
    writes = 0;
    sequential_hits = 0;
    blocks_transferred = 0;
    acct = [| 0.0; 0.0 |];
  }

let params t = t.params

let sched t = t.sched

let queue_length t = Sched_queue.length t.queue

let set_obs t obs =
  match obs with
  | None -> t.obs <- None
  | Some sink ->
    let m = Obs.Sink.metrics sink in
    let name = t.params.Params.name in
    let h label = Obs.Metrics.histogram m (Printf.sprintf "disk.%s.%s" name label) in
    let g label read = Obs.Metrics.gauge m (Printf.sprintf "disk.%s.%s" name label) read in
    g "reads" (fun () -> float_of_int t.reads);
    g "writes" (fun () -> float_of_int t.writes);
    g "sequential_hits" (fun () -> float_of_int t.sequential_hits);
    g "blocks_transferred" (fun () -> float_of_int t.blocks_transferred);
    g "busy_s" (fun () -> t.acct.(busy_i));
    g "wait_s" (fun () -> t.acct.(wait_i));
    g "queue_depth" (fun () -> float_of_int (queue_length t));
    t.obs <- Some { sink; h_service = h "service_s"; h_wait = h "wait_s_hist" }

let check_addr t addr =
  if addr < 0 || addr >= t.params.Params.capacity_blocks then
    invalid_arg
      (Printf.sprintf "Disk.io(%s): address %d out of range" t.params.Params.name addr)

let rotational_latency t ~sequential =
  let avg = t.params.Params.avg_rot_ms /. 1000.0 in
  if sequential then t.params.Params.seq_rot_factor *. avg
  else
    match t.rng with
    | None -> avg
    | Some rng -> Rng.float rng (2.0 *. avg)

let service_time t ~addr =
  check_addr t addr;
  let sequential = addr = t.head in
  let distance = abs (addr - t.head) in
  let avg_rot = t.params.Params.avg_rot_ms /. 1000.0 in
  (t.params.Params.overhead_ms /. 1000.0)
  +. Params.seek_time_s t.params ~distance
  +. (if sequential then t.params.Params.seq_rot_factor *. avg_rot else avg_rot)
  +. Params.transfer_time_s t.params

(* Choose which waiter the freed drive serves next: an O(1)/O(log n)
   lookup in the indexed queue (arrival order for FCFS, elevator order
   from the current head position for SCAN). *)
let pick_next t = Sched_queue.pick t.queue ~head:t.head

let serve t kind ~addr ~blocks ~waited =
  let started = Engine.now t.engine in
  let sequential = addr = t.head in
  if sequential then t.sequential_hits <- t.sequential_hits + 1;
  let distance = abs (addr - t.head) in
  (* Positioning, decomposed so the trace can attribute the time. *)
  let seek =
    (t.params.Params.overhead_ms /. 1000.0) +. Params.seek_time_s t.params ~distance
  in
  let rot = rotational_latency t ~sequential in
  Engine.delay t.engine (seek +. rot);
  (* A clustered request streams its blocks in one rotation-aligned
     burst: one positioning, [blocks] transfers. *)
  let transfer = float_of_int blocks *. Params.transfer_time_s t.params in
  (match t.bus with
  | Some bus -> Bus.transfer bus ~duration:transfer
  | None -> Engine.delay t.engine transfer);
  t.head <- addr + blocks;
  t.blocks_transferred <- t.blocks_transferred + blocks;
  (match kind with
  | Read -> t.reads <- t.reads + 1
  | Write -> t.writes <- t.writes + 1);
  let service = Engine.now t.engine -. started in
  t.acct.(busy_i) <- t.acct.(busy_i) +. service;
  match t.obs with
  | None -> ()
  | Some { sink; h_service; h_wait } ->
    Obs.Metrics.observe h_service service;
    Obs.Metrics.observe h_wait waited;
    Obs.Sink.emit sink
      (Obs.Trace.Disk_io
         {
           disk = t.params.Params.name;
           kind = (match kind with Read -> "read" | Write -> "write");
           addr;
           blocks;
           seek;
           rot;
           xfer = transfer;
           wait = waited;
         })

(* Pass the drive to the next waiter, which wakes holding it: [busy]
   stays true across the handoff. *)
let handoff t =
  match pick_next t with
  | Some w -> Engine.schedule t.engine ~at:(Engine.now t.engine) w.resume
  | None -> t.busy <- false

let io ?(blocks = 1) t kind ~addr =
  check_addr t addr;
  if blocks < 1 || addr + blocks > t.params.Params.capacity_blocks then
    invalid_arg "Disk.io: bad block count";
  let waited =
    if t.busy then begin
      let enqueued_at = Engine.now t.engine in
      Engine.suspend t.engine (fun resume ->
          Sched_queue.add t.queue ~addr { enqueued_at; resume });
      (* Woken holding the drive: [busy] stayed true across the handoff. *)
      let waited = Engine.now t.engine -. enqueued_at in
      t.acct.(wait_i) <- t.acct.(wait_i) +. waited;
      waited
    end
    else begin
      t.busy <- true;
      0.0
    end
  in
  match serve t kind ~addr ~blocks ~waited with
  | () -> handoff t
  | exception e ->
    handoff t;
    raise e

let reads t = t.reads

let writes t = t.writes

let sequential_hits t = t.sequential_hits

let blocks_transferred t = t.blocks_transferred

let busy_time t = t.acct.(busy_i)

let total_wait t = t.acct.(wait_i)

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.sequential_hits <- 0;
  t.blocks_transferred <- 0;
  t.acct.(busy_i) <- 0.0;
  t.acct.(wait_i) <- 0.0
