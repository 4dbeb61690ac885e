(* Shared helpers for the test suites. *)

open Acfc_sim

let check = Alcotest.check

let chk_int = check Alcotest.int

let chk_bool = check Alcotest.bool

let chk_float msg = check (Alcotest.float 1e-9) msg

(* Run [f] as the only fiber of a fresh engine and return its result. *)
let in_sim f =
  let engine = Engine.create () in
  let result = ref None in
  Engine.spawn engine ~name:"test" (fun () -> result := Some (f engine));
  Engine.run engine;
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not finish"

let case name f = Alcotest.test_case name `Quick f

(* [long_factor] multiplies [count] when QCHECK_LONG=1 is set. *)
let qcheck ?count ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?count ?long_factor ~name gen prop)

(* A block of file 0 with the given index. *)
let blk ?(file = 0) index = Acfc_core.Block.make ~file ~index

let pid n = Acfc_core.Pid.make n

(* Watch one cache: [f] receives the event of every record the cache
   sends a [Custom] obs sink installed on it. *)
let watch cache f =
  let open Acfc_obs in
  Acfc_core.Cache.set_obs cache
    (Some (Sink.create ~backend:(Sink.Custom (fun r -> f r.Trace.ev)) ()))

(* A trace record's block as a cache block. *)
let of_trace (b : Acfc_obs.Trace.block) = Acfc_core.Block.make ~file:b.file ~index:b.index

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected error: " ^ Acfc_core.Error.to_string e)

let config ?(alloc_policy = Acfc_core.Config.Lru_sp) ?revocation ?max_placeholders
    ?max_managers ?max_levels ?max_file_records capacity =
  Acfc_core.Config.make ~alloc_policy ?revocation ?max_placeholders ?max_managers
    ?max_levels ?max_file_records ~capacity_blocks:capacity ()

(* Substring test without extra dependencies. *)
let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0
