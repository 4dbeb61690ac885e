module Fs = Acfc_fs.Fs
module File = Acfc_fs.File
module Advice = Acfc_fs.Advice
module Cache = Acfc_core.Cache
module Control = Acfc_core.Control
module Policy = Acfc_core.Policy
module Disk = Acfc_disk.Disk
module Params = Acfc_disk.Params
open Tutil

let bb = Params.block_bytes

let ok_exn' = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Acfc_core.Error.to_string e)

let with_stack ?(capacity = 16) f =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let fs = Fs.create engine ~config:(config capacity) () in
      let file = Fs.create_file fs ~name:"data" ~disk ~size_bytes:(8 * bb) () in
      let control = ok_exn' (Control.attach (Fs.cache fs) (pid 0)) in
      f engine fs file control)

let noreuse_sets_priority () =
  with_stack (fun _ _ file control ->
      ok_exn (Advice.advise control file Advice.Noreuse);
      chk_bool "priority -1" true
        (Control.get_priority control ~file:(File.id file) = Ok (-1)))

let normal_resets () =
  with_stack (fun _ _ file control ->
      ok_exn (Advice.advise control file Advice.Noreuse);
      ok_exn (Advice.advise control file Advice.Normal);
      chk_bool "priority back to 0" true
        (Control.get_priority control ~file:(File.id file) = Ok 0);
      chk_bool "readahead on" true file.File.readahead_enabled)

let random_disables_readahead () =
  with_stack (fun _ fs file control ->
      ok_exn (Advice.advise control file Advice.Random);
      chk_bool "flag cleared" false file.File.readahead_enabled;
      (* A sequential scan now costs exactly its blocks, read on demand. *)
      Fs.read fs ~pid:(pid 0) file ~off:0 ~len:(8 * bb);
      chk_int "demand reads only" 8 (Fs.pid_disk_reads fs (pid 0)))

let sequential_noreuse () =
  with_stack (fun _ _ file control ->
      ok_exn (Advice.advise control file (Advice.Sequential { reuse = false }));
      chk_bool "read-once priority" true
        (Control.get_priority control ~file:(File.id file) = Ok (-1));
      chk_bool "readahead on" true file.File.readahead_enabled)

let dontneed_drops_blocks () =
  with_stack ~capacity:4 (fun _ fs file control ->
      let cache = Fs.cache fs in
      Fs.read fs ~pid:(pid 0) file ~off:0 ~len:(3 * bb);
      ok_exn (Advice.advise control file (Advice.Dontneed { first = 0; last = 1 }));
      (* Blocks 0 and 1 are now first in line for eviction; the demand
         miss on 5 plus its read-ahead of 6 claim exactly those two
         frames. *)
      Fs.read fs ~pid:(pid 0) file ~off:(5 * bb) ~len:bb;
      chk_bool "dropped advised block" false
        (Cache.contains_packed cache (File.packed_key file ~index:0));
      chk_bool "unadvised block survives" true
        (Cache.contains_packed cache (File.packed_key file ~index:2)))

let willneed_keeps_blocks () =
  with_stack ~capacity:4 (fun _ fs file control ->
      let cache = Fs.cache fs in
      Fs.read fs ~pid:(pid 0) file ~off:0 ~len:bb;
      ok_exn (Advice.advise control file (Advice.Willneed { first = 0; last = 0 }));
      (* Fill the rest of the cache and overflow it: the advised block
         outlives blocks accessed after it. *)
      Fs.read fs ~pid:(pid 0) file ~off:(2 * bb) ~len:(4 * bb);
      chk_bool "advised block survives" true
        (Cache.contains_packed cache (File.packed_key file ~index:0)))

let cyclic_sets_mru () =
  with_stack (fun _ _ file control ->
      ok_exn (Advice.advise control file Advice.Cyclic);
      chk_bool "MRU installed" true (Control.get_policy control ~prio:0 = Ok Policy.Mru))

let advice_requires_manager () =
  in_sim (fun engine ->
      let disk = Disk.create engine Params.rz56 in
      let fs = Fs.create engine ~config:(config 8) () in
      let file = Fs.create_file fs ~name:"x" ~disk ~size_bytes:bb () in
      let control = ok_exn' (Control.attach (Fs.cache fs) (pid 1)) in
      Control.detach control;
      chk_bool "fails when detached" true
        (Advice.advise control file Advice.Noreuse = Error Acfc_core.Error.Not_registered))

let pp_coverage () =
  List.iter
    (fun a -> chk_bool "prints" true (String.length (Format.asprintf "%a" Advice.pp a) > 0))
    [
      Advice.Normal;
      Advice.Sequential { reuse = true };
      Advice.Random;
      Advice.Willneed { first = 0; last = 3 };
      Advice.Dontneed { first = 1; last = 2 };
      Advice.Noreuse;
      Advice.Cyclic;
    ]

let suites =
  [
    ( "advice (fadvise layer)",
      [
        case "noreuse" noreuse_sets_priority;
        case "normal resets" normal_resets;
        case "random disables readahead" random_disables_readahead;
        case "sequential noreuse" sequential_noreuse;
        case "dontneed drops" dontneed_drops_blocks;
        case "willneed keeps" willneed_keeps_blocks;
        case "cyclic = MRU" cyclic_sets_mru;
        case "requires a manager" advice_requires_manager;
        case "printer coverage" pp_coverage;
      ] );
  ]
