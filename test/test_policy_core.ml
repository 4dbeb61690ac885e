(* The unified policy core: registry lookup, offline/live adapter
   equivalence (the determinism contract of DESIGN.md section 9), and
   property suites for the adaptive cores. *)

open Tutil
module Core = Acfc_core
module P = Acfc_policy
module Pc = Acfc_policy.Policy_core

let render_victims vs =
  String.concat ", " (List.map (fun b -> Fmt.str "%a" Core.Block.pp b) vs)

(* {2 Demand streams} *)

(* Three deterministic traces that force plenty of evictions: a cyclic
   scan (the LRU worst case), a skewed pseudo-random stream, and a
   two-file interleave exercising the file-id feature of the
   perceptron. *)
let streams () =
  let cyclic = Array.init 140 (fun i -> blk (i mod 24)) in
  let skewed =
    let r = Acfc_sim.Rng.create 42 in
    Array.init 400 (fun _ ->
        let x = Acfc_sim.Rng.int r 64 in
        blk (if x < 40 then x mod 12 else x))
  in
  let two_file =
    Array.init 300 (fun i ->
        if i mod 3 = 0 then blk ~file:1 (i mod 10) else blk (i * 7 mod 40))
  in
  [ ("cyclic", 16, cyclic); ("skewed", 24, skewed); ("two-file", 12, two_file) ]

(* {2 Live harness} *)

(* Run a core as a live [fbehavior] manager: a real cache, one attached
   manager, the plug-in installed through [Control], victims recorded
   from [Evict] tracer events. *)
let live_replay entry ~capacity trace =
  let cache = Core.Cache.create (config capacity) in
  let p0 = pid 0 in
  let control = ok_exn (Core.Control.attach cache p0) in
  let adapter = P.Live.make entry ~capacity ~future:trace () in
  ok_exn (P.Live.install adapter control);
  let victims = ref [] in
  Core.Cache.set_tracer cache
    (Some
       (function
       | Core.Event.Evict e -> victims := e.victim :: !victims
       | _ -> ()));
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun b ->
      match Core.Cache.read cache ~pid:p0 b with
      | `Hit -> incr hits
      | `Miss -> incr misses)
    trace;
  { Pc.hits = !hits; misses = !misses; victims = List.rev !victims }

(* The tentpole assertion: for every registered policy, the offline
   replay and the live manager path produce the identical victim
   sequence and hit/miss counts from the same demand stream. *)
let offline_live_identity () =
  List.iter
    (fun entry ->
      let name = P.Registry.name entry in
      List.iter
        (fun (stream, capacity, trace) ->
          let off = Pc.replay entry ~capacity trace in
          let live = live_replay entry ~capacity trace in
          let tag what = Fmt.str "%s/%s %s" name stream what in
          check Alcotest.string (tag "victims")
            (render_victims off.victims)
            (render_victims live.victims);
          chk_int (tag "hits") off.hits live.hits;
          chk_int (tag "misses") off.misses live.misses;
          chk_bool (tag "evictions happened") true (off.victims <> []))
        (streams ()))
    P.Registry.all

(* {2 Registry} *)

let ok_exn' = function Ok v -> v | Error e -> Alcotest.fail e

let registry_contents () =
  chk_int "eleven cores" 11 (List.length P.Registry.all);
  let names = P.Registry.names in
  check Alcotest.(list string) "registration order"
    [
      "LRU"; "MRU"; "FIFO"; "CLOCK"; "LRU-2"; "2Q"; "RAND"; "OPT"; "ARC";
      "AWRP"; "PERCEPTRON";
    ]
    names;
  let opt = ok_exn' (P.Registry.find "opt") in
  chk_bool "OPT needs the future" true (P.Registry.needs_future opt);
  let arc = ok_exn' (P.Registry.find "Arc") in
  chk_bool "ARC is adaptive" true (P.Registry.adaptive arc);
  chk_bool "ARC is online" false (P.Registry.needs_future arc);
  List.iter
    (fun e -> chk_bool "has a summary" true (P.Registry.summary e <> ""))
    P.Registry.all

let registry_errors () =
  (match P.Registry.find "zzzzzz" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
      chk_bool "lists valid names" true (contains_sub ~sub:"PERCEPTRON" msg);
      chk_bool "no suggestion for garbage" false
        (contains_sub ~sub:"did you mean" msg));
  match P.Registry.find "clok" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
      chk_bool "suggests nearest" true
        (contains_sub ~sub:{|did you mean "CLOCK"|} msg)

(* {2 Adaptive-core properties} *)

(* Drive a core by hand with the standard full-cache discipline, calling
   [check] on its stats after every event. *)
let drive (module C : Pc.CORE) ~capacity trace ~check:check_stats =
  let t = C.create ~capacity ~future:trace in
  let resident = Hashtbl.create 64 in
  Array.iteri
    (fun pos b ->
      (if Hashtbl.mem resident b then
         C.on_event t (Pc.Reference { pos; block = b })
       else begin
         if Hashtbl.length resident >= capacity then begin
           let v = C.victim t ~pos ~missing:b in
           Hashtbl.remove resident v;
           C.on_event t (Pc.Evict { block = v })
         end;
         Hashtbl.add resident b ();
         C.on_event t (Pc.Admit { pos; block = b })
       end);
      check_stats (C.stats t))
    trace

let trace_gen =
  QCheck2.Gen.(
    pair (int_range 2 8) (list_size (int_range 1 300) (int_range 0 25)))

let arc_ghost_bound =
  qcheck ~count:200 "ARC ghost lists stay within capacity" trace_gen
    (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let ok = ref true in
      drive
        (module P.Cores.Arc)
        ~capacity:cap trace
        ~check:(fun stats ->
          let get k = List.assoc k stats in
          let bound = float_of_int cap in
          if get "b1" > bound || get "b2" > bound then ok := false;
          if get "p" < 0. || get "p" > bound then ok := false);
      !ok)

let awrp_deterministic =
  qcheck ~count:100 "AWRP replays bit-identically" trace_gen (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let a = Pc.replay (module P.Cores.Awrp) ~capacity:cap trace in
      let b = Pc.replay (module P.Cores.Awrp) ~capacity:cap trace in
      a.victims = b.victims && a.hits = b.hits)

let awrp_weight_clamped =
  qcheck ~count:100 "AWRP weight stays clamped" trace_gen (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let ok = ref true in
      drive
        (module P.Cores.Awrp)
        ~capacity:cap trace
        ~check:(fun stats ->
          let w = List.assoc "w" stats in
          if w < 0.05 -. 1e-12 || w > 0.95 +. 1e-12 then ok := false);
      !ok)

let perceptron_finite_and_deterministic =
  qcheck ~count:100 "perceptron weights finite, replay bit-identical"
    trace_gen (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let ok = ref true in
      drive
        (module P.Cores.Perceptron)
        ~capacity:cap trace
        ~check:(fun stats ->
          List.iter
            (fun (k, v) ->
              if String.length k = 2 && k.[0] = 'w' then
                if not (Float.is_finite v) || Float.abs v > 4.0 +. 1e-12 then
                  ok := false)
            stats);
      let a = Pc.replay (module P.Cores.Perceptron) ~capacity:cap trace in
      let b = Pc.replay (module P.Cores.Perceptron) ~capacity:cap trace in
      !ok && a.victims = b.victims)

(* {2 Victim identity against the full-scan oracles}

   The AWRP and PERCEPTRON cores keep indexes (frequency classes,
   cached feature columns) so a victim query need not rank every
   resident block. [Policy_oracles] holds the plain full folds; these
   properties require both to name the same victims, score the same
   hits and learn the same weights. *)

let oracle_pairs : ((module Pc.CORE) * (module Pc.CORE)) list =
  [
    ((module Policy_oracles.Awrp), (module P.Cores.Awrp));
    ((module Policy_oracles.Perceptron), (module P.Cores.Perceptron));
  ]

(* Multi-file streams with a hot set: a hot block is referenced often
   enough for AWRP counts to pass 16, and at w = 0.5 ranks of different
   count classes tie exactly (e.g. counts 1 and 2 at distances 7 and
   15), so the Block.compare tie-break decides. *)
let multi_file_gen =
  QCheck2.Gen.(
    triple (int_range 2 16) (int_range 1 4)
      (list_size (int_range 1 600) (pair (int_range 0 99) (int_range 0 63))))

let multi_file_trace (files, refs) =
  Array.of_list
    (List.map
       (fun (r, x) ->
         if r < 40 then blk ~file:(x mod files) (x mod 4) else blk ~file:(x mod files) x)
       refs)

let oracle_offline =
  qcheck ~count:200 ~long_factor:50 "AWRP/PERCEPTRON offline victims match full-scan oracles"
    multi_file_gen (fun (cap, files, refs) ->
      let trace = multi_file_trace (files, refs) in
      List.for_all
        (fun (oracle, core) ->
          let a = Pc.replay oracle ~capacity:cap trace in
          let b = Pc.replay core ~capacity:cap trace in
          a.Pc.victims = b.Pc.victims && a.hits = b.hits)
        oracle_pairs)

(* One side of a kernel model: how it feeds a policy and asks it for a
   victim. *)
type port = {
  reference : pos:int -> Core.Block.t -> unit;
  admit : pos:int -> Core.Block.t -> unit;
  remove : Core.Block.t -> invalidated:bool -> unit;
  choose : pos:int -> missing:Core.Block.t -> Core.Block.t;
  hint : (Core.Block.t -> int -> unit) option;
  stats : unit -> (string * float) list;
}

(* Through the live adapter's plug-in record, which numbers positions
   itself. *)
let live_port entry ~capacity =
  let adapter = P.Live.make entry ~capacity () in
  let p = P.Live.plugin adapter in
  {
    reference = (fun ~pos:_ b -> p.Core.Acm.on_reference b);
    admit = (fun ~pos:_ b -> p.Core.Acm.on_admit b);
    remove = (fun b ~invalidated -> p.Core.Acm.on_remove b ~invalidated);
    choose =
      (fun ~pos:_ ~missing ->
        match p.Core.Acm.choose ~missing with
        | Some v -> v
        | None -> Alcotest.fail "the plug-in named no victim");
    hint = None;
    stats = (fun () -> P.Live.stats adapter);
  }

(* Straight into the core, at the positions the model picks. *)
let core_port (module C : Pc.CORE) ~capacity =
  let t = C.create ~capacity ~future:[||] in
  {
    reference = (fun ~pos block -> C.on_event t (Pc.Reference { pos; block }));
    admit = (fun ~pos block -> C.on_event t (Pc.Admit { pos; block }));
    remove =
      (fun block ~invalidated ->
        C.on_event t (if invalidated then Pc.Invalidate { block } else Pc.Evict { block }));
    choose = (fun ~pos ~missing -> C.victim t ~pos ~missing);
    hint = Some (fun block level -> C.on_event t (Pc.Hint { block; level }));
    stats = (fun () -> C.stats t);
  }

(* A kernel over one port. Each step may first invalidate a resident
   block; a miss in a full cache asks for a victim, and one miss in ten
   the kernel overrules it and evicts another resident block instead.
   With [gaps], positions sometimes jump by up to 2^40, so blocks
   referenced in a row sit at near-equal recency and AWRP ranks within
   one class round to equal values. Every decision is drawn from
   [seed] alone, so two ports that name the same victims see the same
   events. Returns the named victims, the hits and the final stats. *)
let kernel_model port ~capacity ~seed ~gaps trace =
  let rng = Acfc_sim.Rng.create seed in
  let resident = Hashtbl.create 16 in
  let members () =
    List.sort Core.Block.compare (Hashtbl.fold (fun b () acc -> b :: acc) resident [])
  in
  let nth_member j ~except =
    match List.filter (fun b -> not (Core.Block.equal b except)) (members ()) with
    | [] -> except
    | ms -> List.nth ms (j mod List.length ms)
  in
  let pos = ref 0 and named = ref [] and hits = ref 0 in
  Array.iter
    (fun b ->
      let r = Acfc_sim.Rng.int rng 100 and j = Acfc_sim.Rng.int rng 1_000 in
      let jump = Acfc_sim.Rng.int rng 100 in
      if gaps && jump < 5 then pos := !pos + (1 lsl (20 + Acfc_sim.Rng.int rng 21));
      if r < 4 && Hashtbl.length resident > 0 then begin
        let v = nth_member j ~except:b in
        Hashtbl.remove resident v;
        port.remove v ~invalidated:true
      end;
      (match port.hint with
      | Some hint when r >= 4 && r < 10 && Hashtbl.length resident > 0 ->
        hint (nth_member j ~except:b) (j mod 8)
      | Some _ | None -> ());
      if Hashtbl.mem resident b then begin
        incr hits;
        port.reference ~pos:!pos b
      end
      else begin
        if Hashtbl.length resident >= capacity then begin
          let v = port.choose ~pos:!pos ~missing:b in
          named := v :: !named;
          let v = if r >= 90 then nth_member j ~except:v else v in
          Hashtbl.remove resident v;
          port.remove v ~invalidated:false
        end;
        Hashtbl.replace resident b ();
        port.admit ~pos:!pos b
      end;
      incr pos)
    trace;
  (List.rev !named, !hits, port.stats ())

let kernel_gen =
  QCheck2.Gen.(
    pair (pair (int_range 2 16) (int_range 0 1_000_000))
      (pair (int_range 1 4)
         (list_size (int_range 1 500) (pair (int_range 0 99) (int_range 0 63)))))

let kernel_property name ~port ~gaps =
  qcheck ~count:150 ~long_factor:50 name kernel_gen (fun ((cap, seed), trace) ->
      let trace = multi_file_trace trace in
      List.for_all
        (fun (oracle, core) ->
          let run entry =
            kernel_model (port entry ~capacity:cap) ~capacity:cap ~seed ~gaps trace
          in
          run oracle = run core)
        oracle_pairs)

let oracle_live =
  kernel_property "AWRP/PERCEPTRON live adapter matches oracles under overrule and invalidate"
    ~port:live_port ~gaps:false

let oracle_gaps =
  kernel_property "AWRP/PERCEPTRON cores match oracles across position gaps and hints"
    ~port:core_port ~gaps:true

(* The run walk in AWRP's victim choice, pinned: two blocks referenced
   once, a billion positions back, round to one rank, and the later
   one has the smaller key, so the victim is not the class's LRU
   end. *)
let awrp_equal_rank_run () =
  List.iter
    (fun entry ->
      let port = core_port entry ~capacity:4 in
      port.admit ~pos:0 (blk 9);
      port.admit ~pos:1 (blk 3);
      let v = port.choose ~pos:1_000_000_000 ~missing:(blk 5) in
      check Alcotest.string "smaller key wins the tie" "f0[3]" (Fmt.str "%a" Core.Block.pp v))
    [ (module Policy_oracles.Awrp : Pc.CORE); (module P.Cores.Awrp) ]

(* {2 Live adapter odds and ends} *)

let live_surface () =
  let entry = ok_exn' (P.Registry.find "arc") in
  let adapter = P.Live.make entry ~capacity:8 () in
  check Alcotest.string "adapter name" "ARC" (P.Live.name adapter);
  chk_bool "stats exposed" true (P.Live.stats adapter <> [])

let suites =
  [
    ( "policy_core",
      [
        case "offline and live adapters agree" offline_live_identity;
        case "registry contents" registry_contents;
        case "registry errors" registry_errors;
        case "live adapter surface" live_surface;
        arc_ghost_bound;
        awrp_deterministic;
        awrp_weight_clamped;
        perceptron_finite_and_deterministic;
        oracle_offline;
        oracle_live;
        oracle_gaps;
        case "AWRP equal-rank run breaks ties by block" awrp_equal_rank_run;
      ] );
  ]
