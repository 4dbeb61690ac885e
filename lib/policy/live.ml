module Acm = Acfc_core.Acm

let plugin (type a) (module C : Policy_core.CORE with type t = a) (core : a) =
  let pos = ref 0 in
  {
    Acm.on_admit =
      (fun key ->
        ignore (C.admit core ~pos:!pos key);
        incr pos);
    on_reference =
      (fun key ->
        C.reference core ~pos:!pos (C.find core key);
        incr pos);
    on_remove =
      (fun key ~invalidated ->
        let id = C.find core key in
        if id >= 0 then if invalidated then C.invalidate core id else C.evict core id);
    choose =
      (fun ~missing ->
        let v = C.victim core ~pos:!pos ~missing:(C.find core missing) in
        if v < 0 then -1 else C.key core v);
  }
