type t = { acm : Acm_ref.t; buf : Buf_ref.t }

exception Cache_busy = Buf_ref.Cache_busy

let create ?(backend = Backend.null) config =
  let acm = Acm_ref.create config in
  let buf = Buf_ref.create config ~acm ~backend in
  { acm; buf }

let config t = Buf_ref.config t.buf

let set_tracer t tracer = Buf_ref.set_tracer t.buf tracer

let set_obs t obs = Buf_ref.set_obs t.buf obs

let read ?prefetch t ~pid key = Buf_ref.read ?prefetch t.buf ~pid key

let write t ~pid key ~fetch = Buf_ref.write t.buf ~pid key ~fetch

let fetched t pkey = Buf_ref.fetched t.buf pkey

let sync t ?file () = Buf_ref.sync t.buf ?file ()

let take_dirty_followers t key ~max_blocks = Buf_ref.take_dirty_followers t.buf key ~max_blocks

let invalidate_file t ~file = Buf_ref.invalidate_file t.buf ~file

let contains t key = Buf_ref.contains t.buf key

let is_dirty t key = Buf_ref.is_dirty t.buf key

let length t = Buf_ref.length t.buf

let capacity t = Buf_ref.capacity t.buf

let register_manager t pid = Acm_ref.register t.acm pid

let unregister_manager t pid = Acm_ref.unregister t.acm pid

let is_manager t pid = Acm_ref.is_registered t.acm pid

let set_priority t pid ~file ~prio = Acm_ref.set_priority t.acm pid ~file ~prio

let get_priority t pid ~file = Acm_ref.get_priority t.acm pid ~file

let set_policy t pid ~prio policy = Acm_ref.set_policy t.acm pid ~prio policy

let get_policy t pid ~prio = Acm_ref.get_policy t.acm pid ~prio

let set_temppri t pid ~file ~first ~last ~prio =
  Acm_ref.set_temppri t.acm pid ~file ~first ~last ~prio

let set_chooser t pid chooser = Acm_ref.set_chooser t.acm pid chooser

let hits t = Buf_ref.hits t.buf
let misses t = Buf_ref.misses t.buf
let evictions t = Buf_ref.evictions t.buf
let writebacks t = Buf_ref.writebacks t.buf
let overrule_count t = Buf_ref.overrule_count t.buf
let placeholders_created t = Buf_ref.placeholders_created t.buf
let placeholders_used t = Buf_ref.placeholders_used t.buf
let placeholder_count t = Buf_ref.placeholder_count t.buf
let pid_hits t pid = Buf_ref.pid_hits t.buf pid
let pid_misses t pid = Buf_ref.pid_misses t.buf pid
let manager_decisions t pid = Acm_ref.decisions t.acm pid
let manager_overrules t pid = Acm_ref.overrules t.acm pid
let manager_mistakes t pid = Acm_ref.mistakes t.acm pid
let manager_revoked t pid = Acm_ref.revoked t.acm pid
let reset_stats t = Buf_ref.reset_stats t.buf

let lru_keys t = Buf_ref.lru_keys t.buf

let level_blocks t pid ~prio = Acm_ref.level_blocks t.acm pid ~prio

let check_invariants t = Buf_ref.check_invariants t.buf
