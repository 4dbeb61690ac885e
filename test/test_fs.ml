open Acfc_sim
module Fs = Acfc_fs.Fs
module File = Acfc_fs.File
module Disk = Acfc_disk.Disk
module Params = Acfc_disk.Params
module Cache = Acfc_core.Cache
open Tutil

let bb = Params.block_bytes

(* Build a one-disk file system inside a simulation and run [f]. *)
let with_fs ?(capacity = 64) ?(track_data = false) ?(readahead = true) f =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let fs =
        Fs.create engine ~config:(config capacity) ~track_data ~readahead ()
      in
      f engine fs disk)

let p0 = pid 0

let p1 = pid 1

let create_and_lookup () =
  with_fs (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(3 * bb) () in
      chk_int "size" (3 * bb) (File.size_bytes f);
      chk_int "blocks" 3 (File.size_blocks f);
      chk_bool "lookup" true
        (Option.map File.id (Fs.lookup fs "a") = Some (File.id f));
      chk_bool "by id" true
        (match Fs.file_of_id fs (File.id f) with Some f' -> f' == f | None -> false);
      chk_bool "missing" true (Fs.lookup fs "b" = None);
      Alcotest.check_raises "duplicate name"
        (Invalid_argument "Fs.create_file: duplicate name \"a\"") (fun () ->
          ignore (Fs.create_file fs ~name:"a" ~disk ~size_bytes:bb ())))

let contiguous_layout () =
  with_fs (fun _ fs disk ->
      let a = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(4 * bb) () in
      let b = Fs.create_file fs ~name:"b" ~disk ~size_bytes:(2 * bb) () in
      chk_int "a at 0" 0 (File.disk_addr a ~index:0);
      chk_int "a block 3" 3 (File.disk_addr a ~index:3);
      chk_int "b after a" 4 (File.disk_addr b ~index:0))

let disk_full () =
  with_fs (fun _ fs disk ->
      let huge = (Params.rz56.Params.capacity_blocks + 1) * bb in
      Alcotest.check_raises "disk full" (Invalid_argument "Fs.create_file: disk full")
        (fun () -> ignore (Fs.create_file fs ~name:"big" ~disk ~size_bytes:huge ())))

let read_bounds () =
  with_fs (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(2 * bb) () in
      Fs.read fs ~pid:p0 f ~off:0 ~len:(2 * bb);
      Alcotest.check_raises "past EOF" (Invalid_argument "Fs.read: past end of file")
        (fun () -> Fs.read fs ~pid:p0 f ~off:bb ~len:(2 * bb));
      Alcotest.check_raises "negative"
        (Invalid_argument "Fs.read: negative offset or length") (fun () ->
          Fs.read fs ~pid:p0 f ~off:(-1) ~len:1);
      (* Zero-length read touches nothing. *)
      let before = Fs.pid_disk_reads fs p0 in
      Fs.read fs ~pid:p0 f ~off:0 ~len:0;
      chk_int "empty read free" before (Fs.pid_disk_reads fs p0))

let sequential_read_cost () =
  with_fs ~capacity:64 (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(32 * bb) () in
      Fs.read fs ~pid:p0 f ~off:0 ~len:(32 * bb);
      chk_int "one disk read per block" 32 (Fs.pid_disk_reads fs p0);
      (* Re-read is fully cached. *)
      Fs.read fs ~pid:p0 f ~off:0 ~len:(32 * bb);
      chk_int "no extra I/O when cached" 32 (Fs.pid_disk_reads fs p0))

let readahead_overlaps () =
  (* With read-ahead the same scan takes less virtual time but exactly
     the same number of disk reads. *)
  let run readahead =
    in_sim (fun engine ->
        let disk = Disk.create engine Params.rz56 in
        let fs = Fs.create engine ~config:(config 64) ~readahead () in
        let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(32 * bb) () in
        Fs.read fs ~pid:p0 f ~off:0 ~len:(32 * bb);
        (Fs.pid_disk_reads fs p0, Engine.now engine))
  in
  let ios_on, t_on = run true in
  let ios_off, t_off = run false in
  chk_int "same I/O count" ios_off ios_on;
  chk_bool "read-ahead is faster" true (t_on < t_off)

let no_readahead_past_eof () =
  with_fs ~capacity:64 (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(4 * bb) () in
      Fs.read fs ~pid:p0 f ~off:0 ~len:(4 * bb);
      chk_int "exactly the file" 4 (Fs.pid_disk_reads fs p0))

let random_access_no_prefetch () =
  with_fs ~capacity:64 (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(32 * bb) () in
      (* Stride-2 (never sequential; starts past block 0, which always
         counts as a scan start): exactly the touched blocks. *)
      let touched = ref 0 in
      let i = ref 1 in
      while !i < 32 do
        Fs.read fs ~pid:p0 f ~off:(!i * bb) ~len:1;
        incr touched;
        i := !i + 2
      done;
      chk_int "no prefetch on strides" !touched (Fs.pid_disk_reads fs p0))

let write_grow_and_rmw () =
  with_fs (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:bb ~reserve_bytes:(4 * bb) () in
      (* Full-block append: no fetch. *)
      Fs.write fs ~pid:p0 f ~off:bb ~len:bb;
      chk_int "no read for full append" 0 (Fs.pid_disk_reads fs p0);
      chk_int "grew" (2 * bb) (File.size_bytes f);
      (* Partial overwrite of on-disk data: read-modify-write. The block
         is not cached, and existed on disk. *)
      ignore (Fs.sync fs);
      ignore (Cache.invalidate_file (Fs.cache fs) ~file:(File.id f));
      Fs.write fs ~pid:p0 f ~off:100 ~len:10;
      chk_int "rmw fetched" 1 (Fs.pid_disk_reads fs p0);
      (* Partial write beyond current size: no fetch. *)
      Fs.write fs ~pid:p0 f ~off:((3 * bb) + 5) ~len:10;
      chk_int "no fetch past size" 1 (Fs.pid_disk_reads fs p0);
      Alcotest.check_raises "past reserve"
        (Invalid_argument "Fs.write: past file reserve") (fun () ->
          Fs.write fs ~pid:p0 f ~off:(4 * bb) ~len:1))

let data_round_trip () =
  with_fs ~track_data:true (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:0 ~reserve_bytes:(4 * bb) () in
      let payload = Bytes.of_string "hello, application-controlled world" in
      Fs.pwrite fs ~pid:p0 f ~off:(bb - 10) payload;
      let got = Fs.pread fs ~pid:p0 f ~off:(bb - 10) ~len:(Bytes.length payload) in
      chk_bool "read back" true (Bytes.equal payload got))

let data_survives_eviction () =
  with_fs ~track_data:true ~capacity:2 (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:0 ~reserve_bytes:(8 * bb) () in
      Fs.pwrite fs ~pid:p0 f ~off:0 (Bytes.of_string "first");
      (* Push the dirty block out through a tiny cache. *)
      for i = 1 to 6 do
        Fs.write fs ~pid:p0 f ~off:(i * bb) ~len:bb
      done;
      let got = Fs.pread fs ~pid:p0 f ~off:0 ~len:5 in
      chk_bool "data preserved across write-back" true
        (Bytes.equal (Bytes.of_string "first") got))

let disk_image_reflects_writeback () =
  with_fs ~track_data:true (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:0 ~reserve_bytes:(2 * bb) () in
      Fs.pwrite fs ~pid:p0 f ~off:0 (Bytes.of_string "durable");
      chk_bool "image empty before flush" true
        (Bytes.get (Fs.disk_image fs f) 0 = '\000');
      ignore (Fs.fsync fs f);
      chk_bool "image after fsync" true
        (Bytes.equal (Bytes.sub (Fs.disk_image fs f) 0 7) (Bytes.of_string "durable")))

let set_disk_image_preload () =
  with_fs ~track_data:true (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(2 * bb) () in
      Fs.set_disk_image fs f ~off:10 (Bytes.of_string "preloaded");
      let got = Fs.pread fs ~pid:p0 f ~off:10 ~len:9 in
      chk_bool "read preloaded data" true (Bytes.equal got (Bytes.of_string "preloaded")))

let unlink_drops_everything () =
  with_fs ~track_data:true (fun _ fs disk ->
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:0 ~reserve_bytes:(2 * bb) () in
      Fs.pwrite fs ~pid:p0 f ~off:0 (Bytes.of_string "gone");
      let writes_before = Fs.pid_disk_writes fs p0 in
      Fs.unlink fs f;
      chk_bool "name free" true (Fs.lookup fs "a" = None);
      chk_int "dirty dropped without write" writes_before (Fs.pid_disk_writes fs p0);
      chk_int "cache emptied" 0 (Cache.length (Fs.cache fs));
      (* Unlink is idempotent. *)
      Fs.unlink fs f)

let update_daemon_flushes () =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let fs = Fs.create engine ~config:(config 64) () in
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:0 ~reserve_bytes:(4 * bb) () in
      let stop = Fs.start_update_daemon fs ~interval:30.0 () in
      Fs.write fs ~pid:p0 f ~off:0 ~len:(2 * bb);
      let block0 = blk ~file:(File.id f) 0 in
      chk_bool "dirty now" true (Cache.is_dirty (Fs.cache fs) block0);
      Engine.delay engine 35.0;
      chk_bool "flushed by daemon" false (Cache.is_dirty (Fs.cache fs) block0);
      chk_int "writes counted" 2 (Fs.pid_disk_writes fs p0);
      stop ())

let write_attribution_to_owner () =
  with_fs ~capacity:2 (fun _ fs disk ->
      let f = Fs.create_file fs ~owner:p1 ~name:"a" ~disk ~size_bytes:0
          ~reserve_bytes:(8 * bb) ()
      in
      (* p0 writes, but the file's owner p1 pays for write-backs. *)
      for i = 0 to 5 do
        Fs.write fs ~pid:p0 f ~off:(i * bb) ~len:bb
      done;
      ignore (Fs.sync fs);
      chk_int "p0 paid no writes" 0 (Fs.pid_disk_writes fs p0);
      chk_bool "owner charged" true (Fs.pid_disk_writes fs p1 > 0);
      chk_bool "totals add up" true
        (Fs.total_block_ios fs = Fs.pid_block_ios fs p0 + Fs.pid_block_ios fs p1);
      Fs.reset_accounting fs;
      chk_int "reset" 0 (Fs.total_block_ios fs))

let scattered_layout_gaps () =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let rng = Rng.create 3 in
      let fs = Fs.create engine ~config:(config 64) ~layout:(`Scattered rng) () in
      let a = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(4 * bb) () in
      let b = Fs.create_file fs ~name:"b" ~disk ~size_bytes:(4 * bb) () in
      (* Files do not overlap and (with this seed) are not adjacent. *)
      chk_bool "no overlap" true
        (File.disk_addr b ~index:0 >= File.disk_addr a ~index:3 + 1);
      chk_bool "gap inserted" true
        (File.disk_addr b ~index:0 > File.disk_addr a ~index:3 + 1);
      (* Reads still address the right blocks. *)
      Fs.read fs ~pid:p0 b ~off:0 ~len:(4 * bb);
      chk_int "reads work" 4 (Fs.pid_disk_reads fs p0))

let file_helpers () =
  chk_int "block_of_offset" 2 (File.block_of_offset ~byte:(2 * bb));
  chk_int "block_of_offset boundary" 1 (File.block_of_offset ~byte:((2 * bb) - 1))

let clustered_writeback () =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let fs = Fs.create engine ~config:(config 64) ~write_cluster:4 () in
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:0 ~reserve_bytes:(8 * bb) () in
      Fs.write fs ~pid:p0 f ~off:0 ~len:(8 * bb);
      let requests = Fs.sync fs in
      Engine.delay engine 1.0;  (* let the async write-backs land *)
      chk_int "two write-back requests issued" 2 requests;
      chk_int "eight block I/Os charged" 8 (Fs.pid_disk_writes fs p0);
      chk_int "eight blocks transferred" 8 (Disk.blocks_transferred disk);
      chk_int "but only two disk requests" 2 (Disk.writes disk);
      (* Nothing left dirty. *)
      chk_int "no residue" 0 (Fs.sync fs))

let clustered_data_integrity () =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let fs =
        Fs.create engine ~config:(config 64) ~write_cluster:8 ~track_data:true ()
      in
      let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:0 ~reserve_bytes:(4 * bb) () in
      let payload = Bytes.init (4 * bb) (fun i -> Char.chr (i mod 251)) in
      Fs.pwrite fs ~pid:p0 f ~off:0 payload;
      ignore (Fs.sync fs);
      Engine.delay engine 1.0;
      chk_bool "image holds the clustered data" true
        (Bytes.equal (Bytes.sub (Fs.disk_image fs f) 0 (4 * bb)) payload))

(* One fiber misses block 2; [waiters] more hit it, 1 ms apart, while
   its disk read is still in flight. With no CPU costs and no
   read-ahead, every reader's [Fs.read] returns exactly when the block
   lands: the issuer first, then the waiters in arrival order. *)
let in_flight_waiters waiters () =
  let e = Engine.create () in
  let disk = Disk.create e Params.rz56 in
  let fs =
    Fs.create e ~config:(config 64) ~hit_cost:0.0 ~io_cpu_cost:0.0 ~readahead:false ()
  in
  let f = Fs.create_file fs ~name:"a" ~disk ~size_bytes:(4 * bb) () in
  let log = ref [] in
  let seen_in_flight = ref [] in
  for i = 0 to waiters do
    Engine.spawn e (fun () ->
        Engine.delay e (0.001 *. float_of_int i);
        seen_in_flight := Fs.reads_in_flight fs :: !seen_in_flight;
        Fs.read fs ~pid:p0 f ~off:(2 * bb) ~len:1;
        log := (i, Engine.now e) :: !log)
  done;
  Engine.run e;
  let landed = Disk.busy_time disk in
  chk_bool "the read outlasts the arrivals" true (landed > 0.001 *. float_of_int waiters);
  check
    Alcotest.(list int)
    "the issuer saw nothing in flight, each waiter the one read"
    (0 :: List.init waiters (fun _ -> 1))
    (List.rev !seen_in_flight);
  check
    Alcotest.(list (pair int (float 1e-12)))
    "issuer, then waiters in FIFO order, all at the landing time"
    (List.init (waiters + 1) (fun i -> (i, landed)))
    (List.rev !log);
  chk_int "one disk read" 1 (Fs.pid_disk_reads fs p0);
  chk_int "nothing in flight afterwards" 0 (Fs.reads_in_flight fs)

(* Model-based data integrity: random reads, writes, syncs and cache
   pressure against a plain Bytes reference model. Every pread must
   return exactly what the model says, whatever the cache and
   write-back machinery did in between. *)
type fs_op =
  | Fwrite of int * int * int  (* file, offset, length *)
  | Fread of int * int * int
  | Fsync
  | Fcheck of int * int * int

let fs_op_gen =
  let open QCheck2.Gen in
  let file = int_range 0 1 in
  let off = int_range 0 ((6 * bb) - 1) in
  let len = int_range 0 700 in
  oneof
    [
      map3 (fun f o l -> Fwrite (f, o, l)) file off len;
      map3 (fun f o l -> Fread (f, o, l)) file off len;
      return Fsync;
      map3 (fun f o l -> Fcheck (f, o, l)) file off len;
    ]

let data_model_prop =
  qcheck "fs data matches a byte-array model" ~count:60
    QCheck2.Gen.(pair (int_range 2 10) (list_size (int_range 1 60) fs_op_gen))
    (fun (capacity, ops) ->
      in_sim (fun engine ->
          let disk = Disk.create engine Params.rz56 in
          let fs = Fs.create engine ~config:(config capacity) ~track_data:true () in
          let extent = 7 * bb in
          let files =
            [|
              Fs.create_file fs ~name:"m0" ~disk ~size_bytes:0 ~reserve_bytes:extent ();
              Fs.create_file fs ~name:"m1" ~disk ~size_bytes:0 ~reserve_bytes:extent ();
            |]
          in
          let models = [| Bytes.make extent '\000'; Bytes.make extent '\000' |] in
          let sizes = [| 0; 0 |] in
          let payload = ref 0 in
          let ok = ref true in
          List.iter
            (fun op ->
              match op with
              | Fwrite (f, off, len) ->
                let len = Stdlib.min len (extent - off) in
                incr payload;
                let data = Bytes.make len (Char.chr (Char.code 'a' + (!payload mod 26))) in
                Fs.pwrite fs ~pid:p0 files.(f) ~off data;
                Bytes.blit data 0 models.(f) off len;
                (* Zero-length writes grow neither the file nor the model. *)
                if len > 0 then sizes.(f) <- Stdlib.max sizes.(f) (off + len)
              | Fread (f, off, len) | Fcheck (f, off, len) ->
                let off = Stdlib.min off sizes.(f) in
                let len = Stdlib.min len (sizes.(f) - off) in
                let got = Fs.pread fs ~pid:p0 files.(f) ~off ~len in
                let want = Bytes.sub models.(f) off len in
                if not (Bytes.equal got want) then ok := false
              | Fsync -> ignore (Fs.sync fs))
            ops;
          Cache.check_invariants (Fs.cache fs);
          !ok))

let suites =
  [
    ( "fs",
      [
        case "create and lookup" create_and_lookup;
        case "contiguous layout" contiguous_layout;
        case "disk full" disk_full;
        case "read bounds" read_bounds;
        case "sequential read cost" sequential_read_cost;
        case "read-ahead overlaps I/O" readahead_overlaps;
        case "no read-ahead past EOF" no_readahead_past_eof;
        case "no prefetch on strides" random_access_no_prefetch;
        case "write growth and RMW" write_grow_and_rmw;
        case "data round trip" data_round_trip;
        case "data survives eviction" data_survives_eviction;
        case "disk image after write-back" disk_image_reflects_writeback;
        case "preloaded disk image" set_disk_image_preload;
        case "unlink" unlink_drops_everything;
        case "update daemon" update_daemon_flushes;
        case "write attribution" write_attribution_to_owner;
        case "scattered layout" scattered_layout_gaps;
        case "clustered write-back" clustered_writeback;
        case "clustered data integrity" clustered_data_integrity;
        case "file helpers" file_helpers;
        case "one waiter on an in-flight read" (in_flight_waiters 1);
        case "three waiters on an in-flight read" (in_flight_waiters 3);
        data_model_prop;
      ] );
  ]
