module Acm = Acfc_core.Acm

let plugin (type a) (module C : Policy_core.CORE with type t = a) (core : a) =
  let pos = ref 0 in
  let step event =
    C.on_event core event;
    incr pos
  in
  {
    Acm.on_admit = (fun block -> step (Policy_core.Admit { pos = !pos; block }));
    on_reference = (fun block -> step (Policy_core.Reference { pos = !pos; block }));
    on_remove =
      (fun block ~invalidated ->
        C.on_event core
          (if invalidated then Policy_core.Invalidate { block }
           else Policy_core.Evict { block }));
    choose = (fun ~missing -> Some (C.victim core ~pos:!pos ~missing));
  }
