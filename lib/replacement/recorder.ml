module Trace = Acfc_obs.Trace

type t = { mutable entries : Refstream.entry list (* reversed *); mutable length : int }

let create () = { entries = []; length = 0 }

let record t pid (b : Trace.block) ~hit ~prefetch =
  let block = Acfc_core.Block.make ~file:b.file ~index:b.index in
  t.entries <- { Refstream.pid = Acfc_core.Pid.make pid; block; hit; prefetch } :: t.entries;
  t.length <- t.length + 1

let observe t (r : Trace.record) =
  match r.ev with
  | Trace.Cache_hit { pid; block } -> record t pid block ~hit:true ~prefetch:false
  | Trace.Cache_miss { pid; block; prefetch } -> record t pid block ~hit:false ~prefetch
  | Trace.Evict _ | Trace.Writeback _ | Trace.Swap _ | Trace.Placeholder_created _
  | Trace.Placeholder_hit _ | Trace.Manager_revoked _ | Trace.Disk_io _ | Trace.Syscall _
  | Trace.Fiber _ ->
    ()

let sink t = Acfc_obs.Sink.create ~backend:(Acfc_obs.Sink.Custom (observe t)) ()

let length t = t.length

let stream t = Array.of_list (List.rev t.entries)
