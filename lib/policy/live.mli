(** The live path: any core running as an [fbehavior] manager,
    issuing Advise decisions through {!Acfc_core.Control} /
    {!Acfc_core.Acm}. *)

val plugin : (module Policy_core.CORE with type t = 'a) -> 'a -> Acfc_core.Acm.plugin
(** [plugin (module C) core] is the {!Acfc_core.Acm.plugin} that feeds
    the manager's events to [core] and asks it for victims; install it
    with [Control.set_plugin]. References are numbered the way the
    offline replay numbers them — each admit and each reference
    consumes one position, and a victim query reads the position the
    admit that follows it takes — so a core driven both ways over the
    same demand stream sees the identical event sequence and names the
    identical victims. Create [core] with [~future:[||]] unless it
    {!Policy_core.CORE.needs_future}; scenario validation rejects such
    cores as managers. *)
