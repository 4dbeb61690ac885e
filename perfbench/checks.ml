(* Output checks. Every unit's rendered result is digested and
   compared with the expected-digest table committed beside the
   benchmark, with the unit's own earlier repetitions, and (for the
   units whose scenario has one) with its golden file byte for byte.
   Conservation identities are asserted on the raw result. A unit with
   any problem counts as one failed unit; the run goes on. *)

module Runner = Acfc_workload.Runner
module Fleet = Acfc_fleet.Fleet
module Policy_sim = Acfc_replacement.Policy_sim
module Cache = Acfc_core.Cache

let short s = String.sub (Digest.to_hex (Digest.string s)) 0 8

(* One digest of every unit input, in order: a table line applies only
   to the unit list it was generated from. *)
let inputs_digest (units : Units.t list) =
  short (String.concat "," (List.map (fun (u : Units.t) -> u.input) units))

(* {2 Expected-digest table}

   One line per (workload, seed):
   [<workload> <seed> <inputs digest> <digest of unit 1>,<digest of unit 2>,…]
   with each digest the first 8 hex digits of the MD5 of the unit's
   rendered output. Lines starting with '#' are comments. *)

type table = (string * int, string * string array) Hashtbl.t

let empty_table () : table = Hashtbl.create 8

let parse_table text : table =
  let t = empty_table () in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ w; seed; inputs; digests ] when line.[0] <> '#' ->
        Hashtbl.replace t (w, int_of_string seed)
          (inputs, Array.of_list (String.split_on_char ',' digests))
      | _ -> ())
    (String.split_on_char '\n' text);
  t

let load_table path =
  if Sys.file_exists path then parse_table (Units.read_file path) else empty_table ()

let table_line ~workload ~seed ~inputs digests =
  Printf.sprintf "%s %d %s %s" workload seed inputs (String.concat "," (Array.to_list digests))

(* {2 Per-unit identities} *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let scenario_identities (r : Runner.t) (streams : Acfc_core.Block.t array array) =
  let apps = r.Runner.apps in
  List.concat
    [
      (if List.length apps <> Array.length streams then [ "app count differs from workload count" ]
       else []);
      (if sum (fun a -> a.Runner.block_ios) apps <> r.Runner.total_ios then
         [ "sum of app block_ios differs from total_ios" ]
       else []);
      (if sum (fun (a : Runner.app_result) -> a.cache_hits) apps <> r.Runner.cache_hits
          || sum (fun (a : Runner.app_result) -> a.cache_misses) apps <> r.Runner.cache_misses
       then [ "app hits/misses do not sum to the cache totals" ]
       else []);
      List.concat
        (List.mapi
           (fun i a ->
             let demand = if i < Array.length streams then Array.length streams.(i) else 0 in
             (if a.Runner.block_ios <> a.Runner.disk_reads + a.Runner.disk_writes then
                [ a.Runner.app_name ^ ": block_ios <> reads + writes" ]
              else [])
             @
             (* Every demand reference is one cache reference; read-ahead
                and busy retries can only add to them. *)
             if a.Runner.cache_hits + a.Runner.cache_misses < demand then
               [
                 Printf.sprintf "%s: hits + misses = %d < %d demand references" a.Runner.app_name
                   (a.Runner.cache_hits + a.Runner.cache_misses) demand;
               ]
             else [])
           apps);
    ]

let fleet_identities (r : Fleet.report) (streams : Acfc_core.Block.t array array) =
  let demand = Array.fold_left (fun a s -> a + Array.length s) 0 streams in
  let clients = Array.to_list r.Fleet.client_stats in
  List.concat
    [
      List.concat
        (List.mapi
           (fun i c ->
             if c.Fleet.local_hits + c.Fleet.local_misses <> demand then
               [
                 Printf.sprintf "client %d: hits + misses = %d, demand references %d" i
                   (c.Fleet.local_hits + c.Fleet.local_misses) demand;
               ]
             else [])
           clients);
      (if sum (fun c -> c.Fleet.remote_requests) clients <> r.Fleet.server_requests then
         [ "client remote requests do not sum to server requests" ]
       else []);
      (if r.Fleet.server_hits > r.Fleet.server_requests then [ "server hits exceed requests" ]
       else []);
    ]

let replay_identities ~capacity ~(trace : Units.trace) ~hits ~misses =
  let n = Array.length trace.blocks in
  (if hits + misses <> n then
     [ Printf.sprintf "hits + misses = %d, trace has %d" (hits + misses) n ]
   else [])
  @
  (* A cache that holds the working set misses each block exactly once. *)
  if capacity >= trace.working_set && misses <> trace.working_set then
    [ Printf.sprintf "%d misses with the working set (%d) resident" misses trace.working_set ]
  else []

let identities (u : Units.t) raw =
  match (u.kind, raw) with
  | Units.Run { streams; _ }, Units.Scenario_result r -> scenario_identities r streams
  | Units.Fleet_run { streams; _ }, Units.Fleet_result r -> fleet_identities r streams
  | Units.Policy_pass { capacity; trace; _ }, Units.Policy_result r ->
    replay_identities ~capacity ~trace ~hits:r.Policy_sim.hits ~misses:r.Policy_sim.misses
  | Units.Cache_pass { capacity; trace; _ }, Units.Cache_result c ->
    replay_identities ~capacity ~trace ~hits:(Cache.hits c) ~misses:(Cache.misses c)
  | _ -> [ "result kind does not match the unit" ]

(* {2 Checker}

   [expected] is the table row for this (workload, seed), when the
   table has one for the same unit list; [first] remembers the digest
   of each unit's first repetition in this run. *)

type t = {
  expected : string array option;
  stale : bool;  (** the table has a row for this seed, but for other inputs *)
  first : (string, string) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let create table ~workload ~seed units =
  let expected, stale =
    match Hashtbl.find_opt table (workload, seed) with
    | Some (inputs, digests)
      when inputs = inputs_digest units && Array.length digests = List.length units ->
      (Some digests, false)
    | Some _ -> (None, true)
    | None -> (None, false)
  in
  { expected; stale; first = Hashtbl.create 64; attempted = 0; failed = 0; problems = [] }

(* Problems with one unit's output; [index] is its place in the unit
   list. *)
let output_problems t ~index (u : Units.t) raw =
  let text = Units.render raw in
  let digest = short text in
  let vs_table =
    match t.expected with
    | Some d when d.(index) <> digest ->
      [ Printf.sprintf "digest %s, expected %s" digest d.(index) ]
    | _ when t.stale -> [ "expected-digest table row is stale for this seed" ]
    | _ -> []
  in
  let vs_first =
    match Hashtbl.find_opt t.first u.id with
    | Some d when d <> digest -> [ Printf.sprintf "digest %s differs from first run's %s" digest d ]
    | Some _ -> []
    | None ->
      Hashtbl.replace t.first u.id digest;
      []
  in
  let vs_golden =
    match u.golden with
    | Some g when g <> text -> [ "output differs from its golden file" ]
    | _ -> []
  in
  (digest, vs_table @ vs_first @ vs_golden @ identities u raw)

let record t (u : Units.t) problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    t.problems <- List.map (fun p -> u.id ^ ": " ^ p) problems @ t.problems
  end

(* Cross-unit check over one round of replay passes: no policy can
   miss less than OPT on the same trace and capacity. Returns extra
   problems per unit index. *)
let opt_bound (results : (Units.t * int option) array) =
  let opt = Hashtbl.create 16 in
  Array.iter
    (fun ((u : Units.t), misses) ->
      match (u.kind, misses) with
      | Units.Policy_pass { policy; capacity; trace }, Some m
        when Units.policy_name policy = "OPT" ->
        Hashtbl.replace opt (trace.hash, capacity) m
      | _ -> ())
    results;
  Array.map
    (fun ((u : Units.t), misses) ->
      let key =
        match u.kind with
        | Units.Policy_pass { capacity; trace; _ } | Units.Cache_pass { capacity; trace; _ } ->
          Some (trace.hash, capacity)
        | _ -> None
      in
      match (Option.bind key (Hashtbl.find_opt opt), misses) with
      | Some o, Some m when m < o -> [ Printf.sprintf "%d misses, below OPT's %d" m o ]
      | _ -> [])
    results

let misses = function
  | Units.Policy_result r -> Some r.Policy_sim.misses
  | Units.Cache_result c -> Some (Cache.misses c)
  | Units.Scenario_result _ | Units.Fleet_result _ -> None
