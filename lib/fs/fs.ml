open Acfc_sim
module Block = Acfc_core.Block
module Cache = Acfc_core.Cache
module Itbl = Acfc_core.Itbl
module Pid = Acfc_core.Pid
module Disk = Acfc_disk.Disk
module Params = Acfc_disk.Params
module Obs = Acfc_obs

let block_bytes = Params.block_bytes

type t = {
  engine : Engine.t;
  mutable cache : Cache.t;  (* set once during create *)
  cpu : Resource.t option;
  hit_cost : float;
  io_cpu_cost : float;
  write_cluster : int;
  readahead : bool;
  layout : [ `Packed | `Scattered of Rng.t ];
  track_data : bool;
  (* Linked files by id: ids are issued in sequence from [next_id], and
     an unlinked file's cell goes back to [None]. *)
  mutable files : File.t option array;
  by_name : (string, File.id) Hashtbl.t;
  mutable next_id : int;
  mutable disk_cursors : (Disk.t * int ref) list;
  (* Blocks whose disk read is outstanding, keyed by [Block.pack]: 0
     while nobody waits for the read, and [1 + i] once readers park on
     the wait queue [landing.(i)]. The queues are reused: [spare] is a
     stack of the free indices, so a waited read allocates nothing once
     the pool has grown to the most reads waited on at once. *)
  in_flight : Itbl.t;
  mutable landing : Engine.waitq array;
  mutable spare : int array;
  mutable nspare : int;
  (* Touched only when [track_data] is set. *)
  frames : (Block.t, Bytes.t) Hashtbl.t;  (* resident data *)
  images : (File.id, Bytes.t) Hashtbl.t;  (* on-disk data *)
  (* Block I/Os charged per pid, indexed by [Pid.to_int], grown on
     demand. *)
  mutable pid_reads : int array;
  mutable pid_writes : int array;
  mutable current_pid : Pid.t;
  mutable obs : Obs.Sink.t option;
}

(* The kernel pid used for syscall events with no issuing process (the
   update daemon's sync, unlink during teardown, …). *)
let kernel_pid = -1

let engine t = t.engine

let cache t = t.cache

let set_obs t obs =
  t.obs <- obs;
  match obs with
  | None -> ()
  | Some sink ->
    let m = Obs.Sink.metrics sink in
    Obs.Metrics.gauge m "fs.files" (fun () ->
        float_of_int
          (Array.fold_left (fun n f -> if Option.is_some f then n + 1 else n) 0 t.files));
    Obs.Metrics.gauge m "fs.block_ios" (fun () ->
        float_of_int
          (Array.fold_left ( + ) 0 t.pid_reads + Array.fold_left ( + ) 0 t.pid_writes))

(* Callers match on [t.obs] themselves and format [detail] only under
   [Some], so a run without obs builds no string and no closure. *)
let syscall sink ~pid op detail = Obs.Sink.emit sink (Obs.Trace.Syscall { pid; op; detail })

let charge t pid n ~writes =
  let p = Pid.to_int pid in
  if p >= Array.length t.pid_reads then begin
    let grow a =
      let b = Array.make (Stdlib.max (2 * Array.length a) (p + 1)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.pid_reads <- grow t.pid_reads;
    t.pid_writes <- grow t.pid_writes
  end;
  let a = if writes then t.pid_writes else t.pid_reads in
  a.(p) <- a.(p) + n

let counted a pid =
  let p = Pid.to_int pid in
  if p < Array.length a then a.(p) else 0

let file_of_id t id = if id >= 0 && id < t.next_id then t.files.(id) else None

let file_of_block t key =
  match file_of_id t (Block.file key) with
  | Some f -> f
  | None -> invalid_arg "Fs: block of unknown file"

(* The backend: what BUF calls when it needs the device. *)

(* The read has landed (or failed): wake whoever waits for it, in
   arrival order, and return their queue to the pool. *)
let landed t p =
  let slot = Itbl.find t.in_flight p - 1 in
  Itbl.remove t.in_flight p;
  if slot >= 0 then begin
    Engine.wake_all t.engine t.landing.(slot);
    t.spare.(t.nspare) <- slot;
    t.nspare <- t.nspare + 1
  end

let backend_read t key =
  let file = file_of_block t key in
  let p = Block.pack key in
  Itbl.set t.in_flight p 0;
  charge t t.current_pid 1 ~writes:false;
  (match
     Disk.io file.File.disk Disk.Read ~addr:(File.disk_addr file ~index:(Block.index key))
   with
  | () -> landed t p
  | exception e ->
    landed t p;
    raise e);
  if t.track_data then begin
    let image = Hashtbl.find t.images (File.id file) in
    let frame = Bytes.make block_bytes '\000' in
    Bytes.blit image (Block.index key * block_bytes) frame 0 block_bytes;
    Hashtbl.replace t.frames key frame
  end

(* Write-backs are asynchronous, like the BSD/Ultrix [bawrite] used when
   a delayed-write buffer is reclaimed: the data is captured at issue
   and the disk write proceeds in its own fiber, so neither the evicting
   process nor the update daemon stalls on it. The write still contends
   for the disk with everyone else. *)
let backend_write t key =
  let file = file_of_block t key in
  (* Clustered write-back: also flush the dirty blocks contiguously
     following [key] in the same request (one positioning). *)
  let followers =
    if t.write_cluster > 1 && not file.File.unlinked then
      Cache.take_dirty_followers t.cache key ~max_blocks:t.write_cluster
    else []
  in
  let cluster = key :: followers in
  let payer = Option.value file.File.owner ~default:t.current_pid in
  charge t payer (List.length cluster) ~writes:true;
  if t.track_data then
    List.iter
      (fun k ->
        match Hashtbl.find_opt t.frames k with
        | Some frame ->
          let image = Hashtbl.find t.images (File.id file) in
          Bytes.blit frame 0 image (Block.index k * block_bytes) block_bytes
        | None -> ())
      cluster;
  let addr = File.disk_addr file ~index:(Block.index key) in
  let disk = file.File.disk in
  let blocks = List.length cluster in
  Engine.spawn t.engine ~name:"writeback" (fun () ->
      Disk.io ~blocks disk Disk.Write ~addr)

let backend_evicted t key = if t.track_data then Hashtbl.remove t.frames key

let create engine ~config ?cpu ?(hit_cost = 0.0006) ?(io_cpu_cost = 0.002)
    ?(write_cluster = 1) ?(readahead = true) ?(layout = `Packed)
    ?(track_data = false) () =
  if write_cluster < 1 then invalid_arg "Fs.create: write_cluster must be positive";
  let t =
    {
      engine;
      (* Placeholder cache; replaced below once the backend closures
         over [t] exist. *)
      cache = Cache.create config;
      cpu;
      hit_cost;
      io_cpu_cost;
      write_cluster;
      readahead;
      layout;
      track_data;
      files = Array.make 32 None;
      by_name = Hashtbl.create 32;
      next_id = 0;
      disk_cursors = [];
      in_flight = Itbl.create 8;
      landing = [||];
      spare = [||];
      nspare = 0;
      frames = Hashtbl.create 1024;
      images = Hashtbl.create 8;
      pid_reads = Array.make 8 0;
      pid_writes = Array.make 8 0;
      current_pid = Pid.make 0;
      obs = None;
    }
  in
  let backend =
    {
      Acfc_core.Backend.read_block = (fun key -> backend_read t key);
      write_block = (fun key -> backend_write t key);
      evicted = (fun key -> backend_evicted t key);
    }
  in
  t.cache <- Cache.create ~backend config;
  t

(* {2 Files} *)

let cursor t disk =
  match List.find_opt (fun (d, _) -> d == disk) t.disk_cursors with
  | Some (_, c) -> c
  | None ->
    let c = ref 0 in
    t.disk_cursors <- (disk, c) :: t.disk_cursors;
    c

let create_file t ?owner ?reserve_bytes ~name ~disk ~size_bytes () =
  if size_bytes < 0 then invalid_arg "Fs.create_file: negative size";
  let reserve_bytes = Option.value reserve_bytes ~default:size_bytes in
  if reserve_bytes < size_bytes then invalid_arg "Fs.create_file: reserve below size";
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Fs.create_file: duplicate name %S" name);
  let reserve_blocks = Stdlib.max 1 ((reserve_bytes + block_bytes - 1) / block_bytes) in
  let c = cursor t disk in
  (* An aged file system scatters files across the disk; model it as a
     random inter-file gap, so multi-file scans pay inter-file seeks. *)
  (match t.layout with
  | `Packed -> ()
  | `Scattered rng ->
    c := !c + Rng.int rng ((Disk.params disk).Params.capacity_blocks / 100));
  if !c + reserve_blocks > (Disk.params disk).Params.capacity_blocks then
    invalid_arg "Fs.create_file: disk full";
  let file =
    {
      File.id = t.next_id;
      name;
      size_bytes;
      reserve_blocks;
      start_block = !c;
      disk;
      owner;
      unlinked = false;
      seq_cursor = -1;
      readahead_enabled = true;
    }
  in
  c := !c + reserve_blocks;
  if file.File.id = Array.length t.files then begin
    let grown = Array.make (2 * file.File.id) None in
    Array.blit t.files 0 grown 0 file.File.id;
    t.files <- grown
  end;
  t.files.(file.File.id) <- Some file;
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.by_name name file.File.id;
  (match t.obs with
  | None -> ()
  | Some sink ->
    syscall sink
      ~pid:(match owner with Some p -> Pid.to_int p | None -> kernel_pid)
      "creat"
      (Printf.sprintf "file=%d name=%s size=%d" file.File.id name size_bytes));
  if t.track_data then
    Hashtbl.replace t.images file.File.id (Bytes.make (reserve_blocks * block_bytes) '\000');
  file

let lookup t name = Option.bind (Hashtbl.find_opt t.by_name name) (file_of_id t)

let unlink t (file : File.t) =
  if not file.File.unlinked then begin
    (match t.obs with
    | None -> ()
    | Some sink ->
      syscall sink ~pid:kernel_pid "unlink"
        (Printf.sprintf "file=%d name=%s" (File.id file) file.File.name));
    file.File.unlinked <- true;
    ignore (Cache.invalidate_file t.cache ~file:(File.id file));
    Hashtbl.remove t.by_name file.File.name;
    t.files.(File.id file) <- None;
    if t.track_data then Hashtbl.remove t.images (File.id file)
  end

(* {2 Data path} *)

let cpu_charge t cost =
  if cost > 0.0 then
    match t.cpu with
    | Some r -> Resource.use r ~service:cost
    | None -> Engine.delay t.engine cost

(* A free index of [landing], growing the pool when none is left. *)
let take_landing t =
  if t.nspare = 0 then begin
    let old = Array.length t.landing in
    let cap = Stdlib.max 4 (2 * old) in
    t.landing <- Array.init cap (fun i -> if i < old then t.landing.(i) else Engine.waitq ());
    (* Every old index is taken: the free ones are the new ones. *)
    t.spare <- Array.init cap (fun i -> cap - 1 - i);
    t.nspare <- cap - old
  end;
  t.nspare <- t.nspare - 1;
  t.spare.(t.nspare)

(* A hit on a block whose read is still in flight waits for it to
   land, on a pooled wait queue taken by the first such waiter. *)
let wait_ready t key =
  let p = Block.pack key in
  match Itbl.find t.in_flight p with
  | -1 -> ()
  | 0 ->
    let slot = take_landing t in
    Itbl.set t.in_flight p (slot + 1);
    Engine.park t.engine t.landing.(slot)
  | v -> Engine.park t.engine t.landing.(v - 1)

let check_range ~what ~off ~len =
  if off < 0 || len < 0 then invalid_arg (what ^ ": negative offset or length")

(* One-block read-ahead, as Ultrix does for sequentially-read files:
   when the access pattern is sequential, fetch the next block
   asynchronously so its transfer overlaps the caller's computation.
   The prefetched block is one the scan is about to read, so block-I/O
   counts are unchanged; only timing is. *)
let maybe_readahead t ~pid (file : File.t) ~index ~sequential =
  let next = index + 1 in
  if
    t.readahead && file.File.readahead_enabled && sequential
    && next < File.size_blocks file
    &&
    let key = File.block_key file ~index:next in
    (not (Cache.contains t.cache key)) && not (Itbl.mem t.in_flight (Block.pack key))
  then
    Engine.spawn t.engine ~name:"readahead" (fun () ->
        let key = File.block_key file ~index:next in
        (* Re-check: the block may have arrived while the fiber was
           waiting to start. *)
        if
          (not (Cache.contains t.cache key)) && not (Itbl.mem t.in_flight (Block.pack key))
        then begin
          t.current_pid <- pid;
          (* Read-ahead is best-effort: with every frame pinned by
             in-flight I/O there is nothing to evict, so just skip. *)
          match Cache.read ~prefetch:true t.cache ~pid key with
          | `Miss -> cpu_charge t t.io_cpu_cost
          | `Hit -> ()
          | exception Cache.Cache_busy -> ()
        end)

(* One block reference of a read, retried while every frame is pinned
   by in-flight I/O (waiting for one to land). *)
let rec read_block t ~pid key =
  t.current_pid <- pid;
  match Cache.read t.cache ~pid key with
  | `Hit -> wait_ready t key
  | `Miss -> cpu_charge t t.io_cpu_cost
  | exception Cache.Cache_busy ->
    Engine.delay t.engine 0.001;
    read_block t ~pid key

(* [out], when given, receives the bytes of [\[off, off+len)]; each
   block's frame is copied as soon as the block is resident — before any
   suspension point — so a later eviction cannot invalidate the frame
   first. *)
let read_internal t ~pid (file : File.t) ~off ~len ~out =
  check_range ~what:"Fs.read" ~off ~len;
  if off + len > file.File.size_bytes then invalid_arg "Fs.read: past end of file";
  if len > 0 then begin
    let first = off / block_bytes and last = (off + len - 1) / block_bytes in
    for index = first to last do
      let key = File.block_key file ~index in
      read_block t ~pid key;
      (match out with
      | Some buffer ->
        let frame = Hashtbl.find t.frames key in
        let block_start = index * block_bytes in
        let src = Stdlib.max off block_start in
        let stop = Stdlib.min (off + len) (block_start + block_bytes) in
        Bytes.blit frame (src - block_start) buffer (src - off) (stop - src)
      | None -> ());
      let sequential =
        index = 0 || index = file.File.seq_cursor || index = file.File.seq_cursor + 1
      in
      file.File.seq_cursor <- index;
      maybe_readahead t ~pid file ~index ~sequential;
      cpu_charge t t.hit_cost
    done
  end

let read t ~pid file ~off ~len =
  (match t.obs with
  | None -> ()
  | Some sink ->
    syscall sink ~pid:(Pid.to_int pid) "read"
      (Printf.sprintf "file=%d off=%d len=%d" (File.id file) off len));
  read_internal t ~pid file ~off ~len ~out:None

(* One block reference of a write; see [read_block]. *)
let rec write_block t ~pid key ~fetch =
  t.current_pid <- pid;
  match Cache.write t.cache ~pid key ~fetch with
  | `Hit -> wait_ready t key
  | `Miss -> ()
  | exception Cache.Cache_busy ->
    Engine.delay t.engine 0.001;
    write_block t ~pid key ~fetch

(* [data], when given, holds the payload for [\[off, off+len)]; it is
   copied into each block's frame immediately after the block becomes
   cached and dirty — before any suspension point — so an eviction
   racing with the rest of the call cannot write back a frame that is
   missing the payload. *)
let write_internal t ~pid (file : File.t) ~off ~len ~data =
  check_range ~what:"Fs.write" ~off ~len;
  if off + len > file.File.reserve_blocks * block_bytes then
    invalid_arg "Fs.write: past file reserve";
  if len > 0 then begin
    let old_size = file.File.size_bytes in
    let first = off / block_bytes and last = (off + len - 1) / block_bytes in
    for index = first to last do
      let key = File.block_key file ~index in
      let block_start = index * block_bytes in
      let block_stop = block_start + block_bytes in
      let covers_whole = off <= block_start && off + len >= block_stop in
      (* Read-modify-write only if the block holds data we must keep. *)
      let fetch = (not covers_whole) && block_start < old_size in
      write_block t ~pid key ~fetch;
      if t.track_data then begin
        let frame =
          match Hashtbl.find_opt t.frames key with
          | Some frame -> frame
          | None ->
            let frame = Bytes.make block_bytes '\000' in
            Hashtbl.replace t.frames key frame;
            frame
        in
        match data with
        | Some bytes ->
          let dst = Stdlib.max off block_start in
          let stop = Stdlib.min (off + len) block_stop in
          Bytes.blit bytes (dst - off) frame (dst - block_start) (stop - dst)
        | None -> ()
      end;
      cpu_charge t t.hit_cost
    done;
    if off + len > old_size then file.File.size_bytes <- off + len
  end

let write t ~pid file ~off ~len =
  (match t.obs with
  | None -> ()
  | Some sink ->
    syscall sink ~pid:(Pid.to_int pid) "write"
      (Printf.sprintf "file=%d off=%d len=%d" (File.id file) off len));
  write_internal t ~pid file ~off ~len ~data:None

let pread t ~pid file ~off ~len =
  if not t.track_data then invalid_arg "Fs.pread: data tracking is off";
  let out = Bytes.make len '\000' in
  read_internal t ~pid file ~off ~len ~out:(Some out);
  out

let pwrite t ~pid file ~off data =
  if not t.track_data then invalid_arg "Fs.pwrite: data tracking is off";
  write_internal t ~pid file ~off ~len:(Bytes.length data) ~data:(Some data)

let sync t =
  (match t.obs with None -> () | Some sink -> syscall sink ~pid:kernel_pid "sync" "");
  Cache.sync t.cache ()

let fsync t file =
  (match t.obs with
  | None -> ()
  | Some sink -> syscall sink ~pid:kernel_pid "fsync" (Printf.sprintf "file=%d" (File.id file)));
  Cache.sync t.cache ~file:(File.id file) ()

let spawn_update_daemon t ?(interval = 30.0) () =
  let stop = ref false in
  Engine.spawn t.engine ~name:"update-daemon" (fun () ->
      let rec loop () =
        Engine.delay t.engine interval;
        if not !stop then begin
          ignore (sync t);
          loop ()
        end
      in
      loop ());
  fun () -> stop := true

(* {2 Accounting} *)

let pid_disk_reads t pid = counted t.pid_reads pid

let pid_disk_writes t pid = counted t.pid_writes pid

let pid_block_ios t pid = pid_disk_reads t pid + pid_disk_writes t pid

let total_block_ios t =
  Array.fold_left ( + ) 0 t.pid_reads + Array.fold_left ( + ) 0 t.pid_writes

let reset_accounting t =
  Array.fill t.pid_reads 0 (Array.length t.pid_reads) 0;
  Array.fill t.pid_writes 0 (Array.length t.pid_writes) 0

(* {2 Test support} *)

let reads_in_flight t = Itbl.length t.in_flight

let disk_image t file =
  if not t.track_data then invalid_arg "Fs.disk_image: data tracking is off";
  Bytes.copy (Hashtbl.find t.images (File.id file))

let set_disk_image t file ~off data =
  if not t.track_data then invalid_arg "Fs.set_disk_image: data tracking is off";
  let image = Hashtbl.find t.images (File.id file) in
  Bytes.blit data 0 image off (Bytes.length data)
