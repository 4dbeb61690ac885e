(* The policy registry under its former name, kept for [perfbench/].
   Everything else uses {!Acfc_policy.Registry} and {!Acfc_policy.Cores}. *)
let all = Acfc_policy.Registry.all
