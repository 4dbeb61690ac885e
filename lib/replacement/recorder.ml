module Event = Acfc_core.Event

type t = { mutable entries : Refstream.entry list (* reversed *); mutable length : int }

let create () = { entries = []; length = 0 }

let record t e =
  t.entries <- e :: t.entries;
  t.length <- t.length + 1

let tracer t = function
  | Event.Hit { pid; block } ->
    record t { Refstream.pid; block; hit = true; prefetch = false }
  | Event.Miss { pid; block; prefetch } ->
    record t { Refstream.pid; block; hit = false; prefetch }
  | Event.Evict _ | Event.Writeback _ | Event.Placeholder_created _
  | Event.Placeholder_used _ | Event.Manager_revoked _ ->
    ()

let length t = t.length

let stream t = Array.of_list (List.rev t.entries)
