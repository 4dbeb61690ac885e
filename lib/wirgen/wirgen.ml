module Wir = Acfc_wir.Wir
module Rng = Acfc_sim.Rng
module Codec = Acfc_obs.Codec
module Config = Acfc_core.Config
module Scenario = Acfc_scenario.Scenario
module Policy = Acfc_core.Policy

type pattern = Sequential | Cyclic | Hot_cold | Random | Access_once

let patterns = [ Sequential; Cyclic; Hot_cold; Random; Access_once ]

let pattern_to_string = function
  | Sequential -> "sequential"
  | Cyclic -> "cyclic"
  | Hot_cold -> "hot_cold"
  | Random -> "random"
  | Access_once -> "access_once"

let pattern_of_string = function
  | "sequential" -> Some Sequential
  | "cyclic" -> Some Cyclic
  | "hot_cold" -> Some Hot_cold
  | "random" -> Some Random
  | "access_once" -> Some Access_once
  | _ -> None

(* The paper's category labels, as used by the eight ported apps. *)
let category = function
  | Sequential -> "sequential"
  | Cyclic -> "cyclic"
  | Hot_cold -> "hot/cold"
  | Random -> "random"
  | Access_once -> "access-once"

type spec = {
  name : string;
  mix : (pattern * float) list;
  files : int * int;
  file_blocks : int * int;
  passes : int * int;
  locality : float;
  advise : float;
}

let default =
  {
    name = "default";
    mix = List.map (fun p -> (p, 1.0)) patterns;
    files = (1, 4);
    file_blocks = (8, 64);
    passes = (2, 4);
    locality = 0.25;
    advise = 0.5;
  }

(* Weight of a pattern in a spec's mix (missing entries weigh 0). *)
let weight spec p = match List.assoc_opt p spec.mix with Some w -> w | None -> 0.0

(* {2 Validation} *)

(* Errors are (sub-path, message), the form the spec codec's
   post-decode check takes. *)
let check spec =
  let err sub msg = Error (sub, msg) in
  let range sub what (lo, hi) =
    if lo < 1 then err sub (what ^ " minimum must be at least 1")
    else if hi < lo then err sub (what ^ " maximum must be at least its minimum")
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = if spec.name = "" then err ".name" "corpus name must be non-empty" else Ok () in
  let* () =
    if
      List.exists
        (fun (_, w) -> Float.is_nan w || w < 0.0 || w = Float.infinity)
        spec.mix
    then err ".mix" "pattern weights must be finite and non-negative"
    else if not (List.exists (fun p -> weight spec p > 0.0) patterns) then
      err ".mix" "at least one pattern weight must be positive"
    else Ok ()
  in
  let* () = range ".files" "file count" spec.files in
  let* () = range ".file_blocks" "file size" spec.file_blocks in
  let* () = range ".passes" "pass count" spec.passes in
  let* () =
    if Float.is_nan spec.locality || spec.locality <= 0.0 || spec.locality > 1.0 then
      err ".locality" "locality must be in (0, 1]"
    else Ok ()
  in
  if Float.is_nan spec.advise || spec.advise < 0.0 || spec.advise > 1.0 then
    err ".advise" "advise density must be in [0, 1]"
  else Ok ()

let label = "wirgen"

let validate spec =
  Result.map_error (fun (sub, msg) -> Codec.error ~label ("$" ^ sub, msg)) (check spec)

(* {2 Generation}

   Every random draw below happens in a fixed textual order, so a
   program is a pure function of (spec, seed): this is the
   bit-reproducibility contract the CI corpus smoke and the bench
   fingerprints rely on. List.init / Array.init have unspecified
   evaluation order — use [draws], never those, for anything that
   touches the RNG. *)

let draws n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let pick_pattern spec rng =
  let weighted = List.filter (fun p -> weight spec p > 0.0) patterns in
  let total = List.fold_left (fun acc p -> acc +. weight spec p) 0.0 weighted in
  let x = Rng.float rng total in
  let rec walk acc = function
    | [] | [ _ ] -> List.nth weighted (List.length weighted - 1)
    | p :: rest ->
      let acc = acc +. weight spec p in
      if x < acc then p else walk acc rest
  in
  walk 0.0 weighted

(* Per-block CPU cost: a small quantized draw, so programs stay
   readable and the JSON stays short. *)
let draw_cpu rng = 0.001 *. float_of_int (Rng.int_in rng 1 8)

let open_files ~slug sizes =
  List.mapi
    (fun i size ->
      Wir.open_file ~name:(Printf.sprintf "%s.%02d.dat" slug i) ~size_blocks:size ())
    sizes

(* One pass over every file in order; smart programs drop each block
   once consumed (the paper's sequential "done-with" idiom). *)
let gen_sequential ~smart ~sizes ~cpu =
  open_files ~slug:"seq" sizes
  @ List.mapi
      (fun i size -> Wir.read ~cpu ~done_with:smart ~file:i ~first:0 ~count:size ())
      sizes

(* Repeated full passes; the smart strategy is the cscope/dinero one:
   everything on one priority level, managed MRU. *)
let gen_cyclic ~smart ~temppri ~sizes ~passes ~cpu =
  let n = List.length sizes in
  let advice =
    if smart then
      draws n (fun i -> Wir.set_priority ~file:i ~prio:0)
      @ [ Wir.set_policy ~prio:0 Policy.Mru ]
    else []
  in
  let body =
    List.mapi (fun i size -> Wir.read ~cpu ~file:i ~first:0 ~count:size ()) sizes
  in
  let tail =
    (* An occasional temporary-priority flush of the first file's front
       half, to exercise the temppri path. *)
    match (smart, temppri, sizes) with
    | true, true, size0 :: _ ->
      [ Wir.set_temppri ~file:0 ~first:0 ~last:((size0 - 1) / 2) ~prio:(-1) ]
    | _ -> []
  in
  open_files ~slug:"cyc" sizes @ advice @ [ Wir.loop passes body ] @ tail

(* A small hot set (file 0, [locality] of its drawn size) and one or
   more cold files; hot takes (1 - locality) of the accesses. The smart
   strategy pins the hot file on a higher level (the pjn/gli shape). *)
let gen_hot_cold ~smart ~locality ~sizes ~passes ~cpu =
  let sizes = match sizes with [ only ] -> [ only; only ] | l -> l in
  let hot_size =
    match sizes with
    | size0 :: _ -> Stdlib.max 1 (int_of_float (locality *. float_of_int size0))
    | [] -> assert false
  in
  let sizes = hot_size :: List.tl sizes in
  let cold = List.tl sizes in
  let total = List.fold_left ( + ) 0 sizes in
  let advice =
    if smart then [ Wir.set_priority ~file:0 ~prio:1; Wir.set_policy ~prio:0 Policy.Lru ]
    else []
  in
  let body =
    List.mapi
      (fun j cold_size ->
        Wir.choice ~prob:(1.0 -. locality)
          [ Wir.rand_read ~cpu ~file:0 ~base:0 ~range:hot_size () ]
          [ Wir.rand_read ~cpu ~file:(j + 1) ~base:0 ~range:cold_size () ])
      cold
  in
  let times = Stdlib.max 1 (passes * total / List.length body) in
  open_files ~slug:"hc" sizes @ advice @ [ Wir.loop times body ]

(* Uniform point reads over every file: the pattern no strategy can
   help (the paper's oblivious baseline); no advice even when smart. *)
let gen_random ~sizes ~passes ~cpu =
  let total = List.fold_left ( + ) 0 sizes in
  let body =
    List.mapi (fun i size -> Wir.rand_read ~cpu ~file:i ~base:0 ~range:size ()) sizes
  in
  let times = Stdlib.max 1 (passes * total / List.length body) in
  open_files ~slug:"rnd" sizes @ [ Wir.loop times body ]

(* Read every input once, write one output of the combined size, unlink
   the inputs: the ld/sort shape. Smart programs drop blocks as they
   are consumed. *)
let gen_access_once ~smart ~sizes ~cpu =
  let n = List.length sizes in
  let total = List.fold_left ( + ) 0 sizes in
  open_files ~slug:"once" sizes
  @ [ Wir.open_file ~name:"once.out" ~size_blocks:0 ~reserve_blocks:total () ]
  @ List.mapi
      (fun i size -> Wir.read ~cpu ~done_with:smart ~file:i ~first:0 ~count:size ())
      sizes
  @ [ Wir.write ~cpu:(cpu /. 2.0) ~done_with:smart ~file:n ~first:0 ~count:total () ]
  @ draws n (fun i -> Wir.unlink i)

let generate spec ~seed =
  (match validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Wirgen.generate: " ^ e));
  let rng = Rng.create seed in
  let pattern = pick_pattern spec rng in
  let smart = Rng.float rng 1.0 < spec.advise in
  let fmin, fmax = spec.files in
  let nfiles = Rng.int_in rng fmin fmax in
  let bmin, bmax = spec.file_blocks in
  let sizes = draws nfiles (fun _ -> Rng.int_in rng bmin bmax) in
  let pmin, pmax = spec.passes in
  let passes = Rng.int_in rng pmin pmax in
  let cpu = draw_cpu rng in
  let pre_compute = Rng.bool rng in
  let temppri = Rng.bool rng in
  let ops =
    match pattern with
    | Sequential -> gen_sequential ~smart ~sizes ~cpu
    | Cyclic -> gen_cyclic ~smart ~temppri ~sizes ~passes ~cpu
    | Hot_cold -> gen_hot_cold ~smart ~locality:spec.locality ~sizes ~passes ~cpu
    | Random -> gen_random ~sizes ~passes ~cpu
    | Access_once -> gen_access_once ~smart ~sizes ~cpu
  in
  let ops = if pre_compute then Wir.compute (cpu *. 4.0) :: ops else ops in
  Wir.make
    ~name:(Printf.sprintf "%s-%s-s%d" spec.name (pattern_to_string pattern) seed)
    ~category:(category pattern) ops

let corpus spec ~seed ~count = draws count (fun i -> generate spec ~seed:(seed + i))

(* Does the program carry a caching strategy? Advise ops, or the
   done-with flag on a read/write (which compiles to a strategy call). *)
let rec op_has_advice = function
  | Wir.Advise _ -> true
  | Wir.Read { done_with; _ } | Wir.Write { done_with; _ } -> done_with
  | Wir.Seq body | Wir.Loop { body; _ } -> List.exists op_has_advice body
  | Wir.Choice { if_true; if_false; _ } ->
    List.exists op_has_advice if_true || List.exists op_has_advice if_false
  | Wir.Open _ | Wir.Rand_read _ | Wir.Compute _ | Wir.Unlink _ -> false

let has_advice (p : Wir.t) = List.exists op_has_advice p.Wir.ops

let scenario ?(cache_blocks = 819) ?(alloc_policy = Config.Lru_sp) spec ~seed ~count =
  let programs = corpus spec ~seed ~count in
  Scenario.make ~seed ~cache_blocks ~alloc_policy
    (List.map (fun p -> Scenario.inline_workload ~smart:(has_advice p) ~disk:0 p) programs)

(* {2 Serialisation (acfc-wirgen/1)} *)

(* Canonical mix: pattern order, zero weights dropped; decoding keeps
   the document's order and refuses a repeated pattern. *)
let mix =
  let pattern =
    Codec.enum ~what:"pattern"
      ~expected:"sequential, cyclic, hot_cold, random or access_once" pattern_to_string
      pattern_of_string
  in
  Codec.conv
    (fun mix ->
      List.filter_map
        (fun p ->
          match List.assoc_opt p mix with Some w when w > 0.0 -> Some (p, w) | _ -> None)
        patterns)
    (fun mix ->
      let rec distinct = function
        | [] -> Ok mix
        | (p, _) :: rest ->
          if List.mem_assoc p rest then
            Error ("", Printf.sprintf "duplicate pattern %S" (pattern_to_string p))
          else distinct rest
      in
      distinct mix)
    (Codec.dict ~expected:"an object of pattern weights" pattern Codec.float)

let range =
  Codec.expect "a [min, max] pair of integers"
    (Codec.conv
       (fun (lo, hi) -> [ lo; hi ])
       (function [ lo; hi ] -> Ok (lo, hi) | _ -> Error ("", "not a pair"))
       (Codec.list Codec.int))

let codec =
  Codec.check check
    Codec.(
      seal ~expected:"a spec object"
        (obj (fun name mix files file_blocks passes locality advise ->
             { name; mix; files; file_blocks; passes; locality; advise })
        |> schema "acfc-wirgen/1"
        |> req "name" (fun s -> s.name) string
        |> req "mix" (fun s -> s.mix) mix
        |> req "files" (fun s -> s.files) range
        |> req "file_blocks" (fun s -> s.file_blocks) range
        |> req "passes" (fun s -> s.passes) range
        |> req "locality" (fun s -> s.locality) float
        |> req "advise" (fun s -> s.advise) float))

let to_string spec = Codec.to_string codec spec

let of_string s = Codec.of_string ~label codec s

let load path = Codec.load ~label codec path

let hash spec = Digest.to_hex (Digest.string (to_string spec))

(* {2 Content-addressed corpora} *)

let corpus_label spec ~seed ~count =
  Printf.sprintf "corpus:%s:s%d:n%d" (hash spec) seed count

let corpus_to_string programs =
  String.concat "" (List.map (fun p -> Wir.to_string p ^ "\n") programs)

let corpus_of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (i + 1) acc rest
    | line :: rest ->
      (match Wir.of_string line with
      | Ok p -> go (i + 1) (p :: acc) rest
      | Error e -> Error (Printf.sprintf "wirgen: corpus line %d: %s" i e))
  in
  go 1 [] lines

let ingest_spec store spec =
  Acfc_store.Store.add store ~kind:Acfc_store.Kind.Wirgen_spec
    ~label:("wirgen-spec:" ^ hash spec)
    ~expect:(hash spec) (to_string spec)

let stored_corpus store spec ~seed ~count =
  let ( let* ) = Result.bind in
  let label = corpus_label spec ~seed ~count in
  match Acfc_store.Store.resolve store ~label with
  | Some entry ->
    let* content =
      Acfc_store.Store.read store ~kind:Acfc_store.Kind.Wirgen_corpus
        ~digest:entry.Acfc_store.Manifest.digest
    in
    let* programs = corpus_of_string content in
    if List.length programs <> count then
      Error
        (Printf.sprintf "wirgen: stored corpus %s has %d members, expected %d"
           entry.Acfc_store.Manifest.digest (List.length programs) count)
    else Ok (programs, `Loaded entry.Acfc_store.Manifest.digest)
  | None ->
    let programs = corpus spec ~seed ~count in
    let* outcome =
      Acfc_store.Store.add store ~kind:Acfc_store.Kind.Wirgen_corpus ~label
        (corpus_to_string programs)
    in
    let digest =
      match outcome with
      | Acfc_store.Store.Created e | Acfc_store.Store.Exists e ->
        e.Acfc_store.Manifest.digest
    in
    Ok (programs, `Generated digest)
