(* A fully custom user-level replacement policy via upcalls.

   The paper's interface offers priorities plus LRU/MRU pools because
   that covers the common patterns cheaply; but Sec. 4 notes the same
   BUF/ACM split supports upcall-style user-level handlers. This example
   installs one (Control.set_chooser) that implements LRU-2 — a policy
   the pool interface cannot express — and uses it to survive scan
   pollution that defeats plain LRU.

   The workload: a database-like process keeps re-reading a hot index
   while one-shot report scans sweep by. LRU-2 ignores blocks seen only
   once, so the scans cannot displace the index.

   Run with:  dune exec examples/upcall_manager.exe
*)

module Config = Acfc_core.Config
module Cache = Acfc_core.Cache
module Control = Acfc_core.Control
module Block = Acfc_core.Block
module Pid = Acfc_core.Pid
module Sink = Acfc_obs.Sink
module Trace = Acfc_obs.Trace

let capacity = 64

let hot_blocks = 32  (* the index, re-read constantly *)

let scan_blocks = 48  (* each report scan, seen once *)

let ok = function Ok v -> v | Error e -> failwith (Acfc_core.Error.to_string e)

let workload cache pid =
  let refs = ref [] in
  let read b =
    refs := b :: !refs;
    ignore (Cache.read cache ~pid b)
  in
  for round = 0 to 7 do
    for i = 0 to hot_blocks - 1 do
      read (Block.make ~file:0 ~index:i)
    done;
    (* a one-shot report scan with fresh blocks every round *)
    for i = 0 to scan_blocks - 1 do
      read (Block.make ~file:1 ~index:((round * scan_blocks) + i))
    done
  done

let run ~with_upcall =
  let cache = Cache.create (Config.make ~capacity_blocks:capacity ()) in
  let pid = Pid.make 1 in
  if with_upcall then begin
    let control = ok (Control.attach cache pid) in
    (* User-level LRU-2: track the last two reference times of every
       block we own; evict the one whose second-to-last reference is
       oldest (blocks seen once are prime victims), and break ties by
       the older last reference, LRU-K's subsidiary LRU rule. *)
    let clock = ref 0 in
    let history : (Block.t, int * int) Hashtbl.t = Hashtbl.create 256 in
    let observe (r : Trace.record) =
      match r.ev with
      | Trace.Cache_hit { block; _ } | Trace.Cache_miss { block; _ } ->
        incr clock;
        let block = Block.make ~file:block.file ~index:block.index in
        let last, _ =
          Option.value (Hashtbl.find_opt history block) ~default:(-1, -1)
        in
        Hashtbl.replace history block (!clock, last)
      | _ -> ()
    in
    Cache.set_obs cache (Some (Sink.create ~backend:(Sink.Custom observe) ()));
    ok
      (Control.set_chooser control
         (Some
            (fun ~candidate:_ ~resident ->
              let score b =
                match Hashtbl.find_opt history b with
                | Some (last, penultimate) -> (penultimate, last)
                | None -> (-1, -1)
              in
              let best =
                List.fold_left
                  (fun acc b ->
                    match acc with
                    | Some best when compare (score best) (score b) <= 0 -> acc
                    | _ -> Some b)
                  None resident
              in
              best)))
  end;
  workload cache (Pid.make 1);
  (Cache.pid_misses cache (Pid.make 1), Cache.overrule_count cache)

let () =
  let misses_lru, _ = run ~with_upcall:false in
  let misses_lru2, overrules = run ~with_upcall:true in
  Format.printf
    "hot %d-block index re-read under %d-block one-shot scans, %d-block cache@.@."
    hot_blocks scan_blocks capacity;
  Format.printf "  kernel LRU:            %4d misses@." misses_lru;
  Format.printf "  upcall LRU-2 manager:  %4d misses (%d overrules)@." misses_lru2
    overrules;
  Format.printf
    "@.the handler implements a policy the pool interface cannot express;@\n\
     the micro-benchmarks show what that generality costs per miss@."
