type t = { acm : Acm.t; buf : Buf.t }

exception Cache_busy = Buf.Cache_busy

let create ?(backend = Backend.null) config =
  (* One shared columnar entry table: BUF's global list and ACM's level
     lists are intrusive links over the same slots. Pre-sized to
     capacity — evictions precede inserts, so steady state never
     grows it. *)
  let tab = Ctab.create ~initial:(max 16 config.Config.capacity_blocks) () in
  (* BUF's block table, which ACM reads to find a manager's block by
     key. *)
  let table = Itbl.create (2 * config.Config.capacity_blocks) in
  let acm = Acm.create config ~tab ~table in
  let buf = Buf.create config ~acm ~tab ~table ~backend in
  { acm; buf }

let config t = Buf.config t.buf

let set_obs t obs = Buf.set_obs t.buf obs

let read_packed ?prefetch t ~pid pkey = Buf.read_packed ?prefetch t.buf ~pid pkey

let read ?prefetch t ~pid key = Buf.read_packed ?prefetch t.buf ~pid (Block.pack key)

let write_packed t ~pid pkey ~fetch = Buf.write_packed t.buf ~pid pkey ~fetch

let write t ~pid key ~fetch = Buf.write_packed t.buf ~pid (Block.pack key) ~fetch

let fetched t pkey = Buf.fetched t.buf pkey

let sync t ?file () = Buf.sync t.buf ?file ()

let take_dirty_followers t key ~max_blocks = Buf.take_dirty_followers t.buf key ~max_blocks

let invalidate_file t ~file = Buf.invalidate_file t.buf ~file

let contains_packed t pkey = Buf.contains_packed t.buf pkey

let contains t key = Buf.contains_packed t.buf (Block.pack key)

let is_dirty t key = Buf.is_dirty t.buf key

let length t = Buf.length t.buf

let capacity t = Buf.capacity t.buf

let register_manager t pid = Acm.register t.acm pid

let unregister_manager t pid = Acm.unregister t.acm pid

let is_manager t pid = Acm.is_registered t.acm pid

let set_priority t pid ~file ~prio = Acm.set_priority t.acm pid ~file ~prio

let get_priority t pid ~file = Acm.get_priority t.acm pid ~file

let set_policy t pid ~prio policy = Acm.set_policy t.acm pid ~prio policy

let get_policy t pid ~prio = Acm.get_policy t.acm pid ~prio

let set_temppri t pid ~file ~first ~last ~prio =
  Acm.set_temppri t.acm pid ~file ~first ~last ~prio

let set_chooser t pid chooser = Acm.set_chooser t.acm pid chooser

let set_plugin t pid plugin = Acm.set_plugin t.acm pid plugin

let hits t = Buf.hits t.buf
let misses t = Buf.misses t.buf
let evictions t = Buf.evictions t.buf
let writebacks t = Buf.writebacks t.buf
let overrule_count t = Buf.overrule_count t.buf
let placeholders_created t = Buf.placeholders_created t.buf
let placeholders_used t = Buf.placeholders_used t.buf
let placeholder_count t = Buf.placeholder_count t.buf
let pid_hits t pid = Buf.pid_hits t.buf pid
let pid_misses t pid = Buf.pid_misses t.buf pid
let manager_decisions t pid = Acm.decisions t.acm pid
let manager_overrules t pid = Acm.overrules t.acm pid
let manager_mistakes t pid = Acm.mistakes t.acm pid
let manager_revoked t pid = Acm.revoked t.acm pid
let manager_members t pid = Acm.members t.acm pid
let reset_stats t = Buf.reset_stats t.buf

let lru_keys t = Buf.lru_keys t.buf

let level_blocks t pid ~prio = Acm.level_blocks t.acm pid ~prio

let manager_resident t pid = Acm.resident t.acm pid

let check_invariants t = Buf.check_invariants t.buf
