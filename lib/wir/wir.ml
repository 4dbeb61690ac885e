module Policy = Acfc_core.Policy
module Block = Acfc_core.Block
module Rng = Acfc_sim.Rng
module Codec = Acfc_obs.Codec

let block_bytes = Acfc_disk.Params.block_bytes

type advice =
  | Priority of { file : int; prio : int }
  | Policy of { prio : int; policy : Policy.t }
  | Temppri of { file : int; first : int; last : int; prio : int }
  | Done_with of { file : int; index : int }

type op =
  | Open of { name : string; size_blocks : int; reserve_blocks : int }
  | Read of { file : int; first : int; count : int; cpu : float; done_with : bool }
  | Write of { file : int; first : int; count : int; cpu : float; done_with : bool }
  | Rand_read of { file : int; base : int; range : int; cpu : float }
  | Compute of float
  | Advise of advice
  | Unlink of { file : int }
  | Seq of op list
  | Loop of { times : int; body : op list }
  | Choice of { prob : float; if_true : op list; if_false : op list }

type t = { name : string; category : string; ops : op list }

(* {2 Construction} *)

let make ~name ~category ops = { name; category; ops }

let open_file ?reserve_blocks ~name ~size_blocks () =
  let reserve_blocks =
    match reserve_blocks with Some r -> r | None -> Stdlib.max 1 size_blocks
  in
  Open { name; size_blocks; reserve_blocks }

let read ?(cpu = 0.0) ?(done_with = false) ~file ~first ~count () =
  Read { file; first; count; cpu; done_with }

let write ?(cpu = 0.0) ?(done_with = false) ~file ~first ~count () =
  Write { file; first; count; cpu; done_with }

let rand_read ?(cpu = 0.0) ~file ~base ~range () = Rand_read { file; base; range; cpu }

let compute seconds = Compute seconds

let set_priority ~file ~prio = Advise (Priority { file; prio })

let set_policy ~prio policy = Advise (Policy { prio; policy })

let set_temppri ~file ~first ~last ~prio = Advise (Temppri { file; first; last; prio })

let done_with ~file ~index = Advise (Done_with { file; index })

let unlink file = Unlink { file }

let seq ops = Seq ops

let loop times body = Loop { times; body }

let choice ~prob if_true if_false = Choice { prob; if_true; if_false }

(* {2 Program statistics} *)

let rec count_ops acc = function
  | Seq body -> List.fold_left count_ops acc body
  | Loop { body; _ } -> List.fold_left count_ops acc body + 1
  | Choice { if_true; if_false; _ } ->
    List.fold_left count_ops (List.fold_left count_ops acc if_true) if_false + 1
  | Open _ | Read _ | Write _ | Rand_read _ | Compute _ | Advise _ | Unlink _ -> acc + 1

let op_count t = List.fold_left count_ops 0 t.ops

let rec count_opens acc = function
  | Open _ -> acc + 1
  | Seq body -> List.fold_left count_opens acc body
  (* Opens are illegal inside Loop/Choice, but count what is there so
     the statistic stays truthful on unvalidated programs. *)
  | Loop { body; _ } -> List.fold_left count_opens acc body
  | Choice { if_true; if_false; _ } ->
    List.fold_left count_opens (List.fold_left count_opens acc if_true) if_false
  | Read _ | Write _ | Rand_read _ | Compute _ | Advise _ | Unlink _ -> acc

let file_count t = List.fold_left count_opens 0 t.ops

(* {2 Static checking}

   Errors are (sub-path, message) pairs; [validate] and the embedding
   document's codec stamp on the root path and label, so a program
   nested in a scenario reports scenario-rooted paths.

   [exec] checks every program it runs, so the walk allocates nothing
   per op on success: an op is named by its index in a [body], a chain
   of frames built once per nested list, and its path is rendered only
   when the op is rejected.

   [Fs] reads only below a file's size, which starts at [size_blocks]
   and grows with each write's end. So [written] is the size a file
   certainly has when an op runs: raised only by writes that must have
   run before it, at top level or in a loop body that runs at least
   once, never in a choice branch. It is -1 once the file is unlinked,
   which keeps a slot at three fields. *)

type slot = { reserve : int; file_name : string; mutable written : int }

(* A list of ops: the top-level [ops], or the [field] list of the op at
   index [i] of [up]. *)
type body = Ops | Nested of body * int * string

(* Where a list of ops sits: at top level, in a loop body that runs at
   least once, or where it may not run at all (a choice branch, a loop
   of zero times). *)
type place = Top | Repeated | Maybe

let rec render body i =
  match body with
  | Ops -> Printf.sprintf ".ops[%d]" i
  | Nested (up, j, field) -> Printf.sprintf "%s.%s[%d]" (render up j) field i

exception Rejected of string * string

let check_written body i file s ~first ~count =
  if first + count > s.written then
    raise
      (Rejected
         ( render body i,
           Printf.sprintf
             "read of blocks [%d, %d) is past the end of file %d (%d block%s written here)"
             first (first + count) file s.written
             (if s.written = 1 then "" else "s") ))

let check t =
  let slots : slot array ref = ref [||] in
  let n_slots = ref 0 in
  let push s =
    if !n_slots = Array.length !slots then begin
      let grown = Array.make (Stdlib.max 8 (2 * !n_slots)) s in
      Array.blit !slots 0 grown 0 !n_slots;
      slots := grown
    end;
    !slots.(!n_slots) <- s;
    incr n_slots
  in
  let err body i msg = raise (Rejected (render body i, msg)) in
  let slot body i file =
    if file < 0 || file >= !n_slots then
      err body i
        (Printf.sprintf "file %d is not open (%d file%s opened so far)" file !n_slots
           (if !n_slots = 1 then "" else "s"))
    else if !slots.(file).written < 0 then err body i (Printf.sprintf "file %d was unlinked" file)
    else !slots.(file)
  in
  let finite_nonneg body i what v =
    if Float.is_nan v || v < 0.0 || v = Float.infinity then
      err body i (Printf.sprintf "%s must be a finite non-negative number" what)
  in
  let check_range body i verb file ~first ~count =
    let s = slot body i file in
    if first < 0 then err body i (Printf.sprintf "%s starts at negative block %d" verb first)
    else if count < 1 then err body i (Printf.sprintf "%s count must be at least 1" verb)
    else if first + count > s.reserve then
      err body i
        (Printf.sprintf "%s of blocks [%d, %d) exceeds file %d's %d-block extent" verb
           first (first + count) file s.reserve)
  in
  let rec check_op place body i = function
    | Open { name; size_blocks; reserve_blocks } ->
      if place <> Top then err body i "open is not allowed inside loop or choice"
      else if name = "" then err body i "file name must be non-empty"
      else if size_blocks < 0 then err body i "size_blocks must be non-negative"
      else if reserve_blocks < Stdlib.max 1 size_blocks then
        err body i "reserve_blocks must be at least max(1, size_blocks)"
      else if
        Array.exists (fun s -> s.written >= 0 && s.file_name = name)
          (Array.sub !slots 0 !n_slots)
      then err body i (Printf.sprintf "duplicate file name %S" name)
      else push { reserve = reserve_blocks; file_name = name; written = size_blocks }
    | Read { file; first; count; cpu; _ } ->
      check_range body i "read" file ~first ~count;
      check_written body i file !slots.(file) ~first ~count;
      finite_nonneg body i "cpu" cpu
    | Write { file; first; count; cpu; _ } ->
      check_range body i "write" file ~first ~count;
      finite_nonneg body i "cpu" cpu;
      let s = !slots.(file) in
      if place <> Maybe && first + count > s.written then s.written <- first + count
    | Rand_read { file; base; range; cpu } ->
      let s = slot body i file in
      if base < 0 then err body i (Printf.sprintf "read starts at negative block %d" base)
      else if range < 1 then err body i "range must be at least 1"
      else if base + range > s.reserve then
        err body i
          (Printf.sprintf "read of blocks [%d, %d) exceeds file %d's %d-block extent" base
             (base + range) file s.reserve);
      check_written body i file s ~first:base ~count:range;
      finite_nonneg body i "cpu" cpu
    | Compute seconds -> finite_nonneg body i "seconds" seconds
    | Advise (Priority { file; _ }) -> ignore (slot body i file)
    | Advise (Policy _) -> ()
    | Advise (Temppri { file; first; last; _ }) ->
      let s = slot body i file in
      if first < 0 || last < first || last >= s.reserve then
        err body i
          (Printf.sprintf "temppri range [%d, %d] outside file %d's %d-block extent" first
             last file s.reserve)
    | Advise (Done_with { file; index }) ->
      let s = slot body i file in
      if index < 0 || index >= s.reserve then
        err body i
          (Printf.sprintf "done_with block %d outside file %d's %d-block extent" index file
             s.reserve)
    | Unlink { file } ->
      if place <> Top then err body i "unlink is not allowed inside loop or choice"
      else (slot body i file).written <- -1
    | Seq ops -> check_body place (Nested (body, i, "body")) ops
    | Loop { times; body = ops } ->
      if times < 0 then err body i "times must be non-negative"
      else
        check_body
          (if times = 0 || place = Maybe then Maybe else Repeated)
          (Nested (body, i, "body")) ops
    | Choice { prob; if_true; if_false } ->
      if Float.is_nan prob || prob < 0.0 || prob > 1.0 then
        err body i "prob must be between 0 and 1"
      else begin
        check_body Maybe (Nested (body, i, "then")) if_true;
        check_body Maybe (Nested (body, i, "else")) if_false
      end
  and check_body place body ops = List.iteri (check_op place body) ops in
  if t.name = "" then Error (".name", "program name must be non-empty")
  else
    match check_body Top Ops t.ops with
    | () -> Ok ()
    | exception Rejected (path, msg) -> Error (path, msg)

let label = "wir"

let validate t = Result.map_error (fun (sub, msg) -> Codec.error ~label ("$" ^ sub, msg)) (check t)

(* {2 Execution} *)

let exec t env ~disk =
  (match validate t with Ok () -> () | Error e -> failwith e);
  let files = ref [||] in
  let n_files = ref 0 in
  let push f =
    if !n_files = Array.length !files then begin
      let grown = Array.make (Stdlib.max 8 (2 * !n_files)) f in
      Array.blit !files 0 grown 0 !n_files;
      files := grown
    end;
    !files.(!n_files) <- f;
    incr n_files
  in
  let file i = !files.(i) in
  let rec run op =
    match op with
    | Open { name; size_blocks; reserve_blocks } ->
      (* validate guarantees reserve_blocks >= max 1 size_blocks, which
         is exactly Fs.create_file's default rounding — so passing the
         reserve unconditionally is identical to the historical
         closures, which passed it only when growing a size-0 file. *)
      push
        (Acfc_fs.Fs.create_file env.Env.fs ~owner:env.Env.pid
           ~name:(Env.unique_name env name) ~disk
           ~size_bytes:(size_blocks * block_bytes)
           ~reserve_bytes:(reserve_blocks * block_bytes) ())
    | Read { file = i; first; count; cpu; done_with } ->
      let f = file i in
      for b = first to first + count - 1 do
        Env.read_blocks env f ~first:b ~count:1;
        Env.compute env cpu;
        if done_with then Env.done_with_block env f b
      done
    | Write { file = i; first; count; cpu; done_with } ->
      let f = file i in
      for b = first to first + count - 1 do
        Env.write_blocks env f ~first:b ~count:1;
        Env.compute env cpu;
        if done_with then Env.done_with_block env f b
      done
    | Rand_read { file = i; base; range; cpu } ->
      let f = file i in
      Env.read_blocks env f ~first:(base + Rng.int env.Env.rng range) ~count:1;
      Env.compute env cpu
    | Compute seconds -> Env.compute env seconds
    | Advise (Priority { file = i; prio }) -> Env.set_priority env (file i) prio
    | Advise (Policy { prio; policy }) -> Env.set_policy env ~prio policy
    | Advise (Temppri { file = i; first; last; prio }) ->
      Env.set_temppri env (file i) ~first ~last ~prio
    | Advise (Done_with { file = i; index }) -> Env.done_with_block env (file i) index
    | Unlink { file = i } -> Acfc_fs.Fs.unlink env.Env.fs (file i)
    | Seq body -> List.iter run body
    | Loop { times; body } ->
      for _ = 1 to times do
        List.iter run body
      done
    | Choice { prob; if_true; if_false } ->
      if Rng.float env.Env.rng 1.0 < prob then List.iter run if_true
      else List.iter run if_false
  in
  List.iter run t.ops

let references ?rng t =
  (match validate t with Ok () -> () | Error e -> failwith e);
  let rng = match rng with Some r -> r | None -> Rng.create 0 in
  let out = ref [||] in
  let n = ref 0 in
  let push b =
    if !n = Array.length !out then begin
      let grown = Array.make (Stdlib.max 1024 (2 * !n)) b in
      Array.blit !out 0 grown 0 !n;
      out := grown
    end;
    !out.(!n) <- b;
    incr n
  in
  let next_slot = ref 0 in
  let rec run op =
    match op with
    | Open _ -> incr next_slot
    | Read { file; first; count; _ } | Write { file; first; count; _ } ->
      for b = first to first + count - 1 do
        push (Block.make ~file ~index:b)
      done
    | Rand_read { file; base; range; _ } ->
      push (Block.make ~file ~index:(base + Rng.int rng range))
    | Compute _ | Advise _ | Unlink _ -> ()
    | Seq body -> List.iter run body
    | Loop { times; body } ->
      for _ = 1 to times do
        List.iter run body
      done
    | Choice { prob; if_true; if_false } ->
      if Rng.float rng 1.0 < prob then List.iter run if_true else List.iter run if_false
  in
  List.iter run t.ops;
  Array.sub !out 0 !n

(* {2 Serialisation} *)

let advice =
  let open Codec in
  variant ~tag:"kind" ~what:"advice kind"
    [
      case "priority"
        (function Priority { file; prio } -> Some (file, prio) | _ -> None)
        (obj (fun file prio -> Priority { file; prio })
        |> req "file" fst int |> req "prio" snd int);
      case "policy"
        (function Policy { prio; policy } -> Some (prio, policy) | _ -> None)
        (obj (fun prio policy -> Policy { prio; policy })
        |> req "prio" fst int
        |> req "policy" snd
             (enum ~what:"policy" ~expected:"lru or mru" Policy.to_string Policy.of_string));
      case "temppri"
        (function
          | Temppri { file; first; last; prio } -> Some (file, first, last, prio) | _ -> None)
        (obj (fun file first last prio -> Temppri { file; first; last; prio })
        |> req "file" (fun (f, _, _, _) -> f) int
        |> req "first" (fun (_, f, _, _) -> f) int
        |> req "last" (fun (_, _, l, _) -> l) int
        |> req "prio" (fun (_, _, _, p) -> p) int);
      case "done_with"
        (function Done_with { file; index } -> Some (file, index) | _ -> None)
        (obj (fun file index -> Done_with { file; index })
        |> req "file" fst int |> req "index" snd int);
    ]

(* Defaults are omitted: [cpu] 0, [done_with] false, [reserve_blocks]
   = max 1 [size_blocks], an empty [else]. *)
let op =
  Codec.fix (fun op ->
      let open Codec in
      let body = list op in
      let rw tag proj ctor =
        case tag proj
          (obj ctor
          |> req "file" (fun (f, _, _, _, _) -> f) int
          |> req "first" (fun (_, f, _, _, _) -> f) int
          |> req "count" (fun (_, _, c, _, _) -> c) int
          |> dflt "cpu" ~default:0.0 (fun (_, _, _, c, _) -> c) float
          |> dflt "done_with" ~default:false (fun (_, _, _, _, d) -> d) bool)
      in
      seal ~expected:"an op object"
        (variant ~tag:"op" ~what:"op"
           [
             case "open"
               (function
                 | Open { name; size_blocks; reserve_blocks } ->
                   Some
                     ( name,
                       size_blocks,
                       if reserve_blocks = Stdlib.max 1 size_blocks then None
                       else Some reserve_blocks )
                 | _ -> None)
               (obj (fun name size_blocks reserve ->
                    let reserve_blocks =
                      Option.value reserve ~default:(Stdlib.max 1 size_blocks)
                    in
                    Open { name; size_blocks; reserve_blocks })
               |> req "name" (fun (n, _, _) -> n) string
               |> req "size_blocks" (fun (_, s, _) -> s) int
               |> opt "reserve_blocks" (fun (_, _, r) -> r) int);
             rw "read"
               (function
                 | Read { file; first; count; cpu; done_with } ->
                   Some (file, first, count, cpu, done_with)
                 | _ -> None)
               (fun file first count cpu done_with ->
                 Read { file; first; count; cpu; done_with });
             rw "write"
               (function
                 | Write { file; first; count; cpu; done_with } ->
                   Some (file, first, count, cpu, done_with)
                 | _ -> None)
               (fun file first count cpu done_with ->
                 Write { file; first; count; cpu; done_with });
             case "rand_read"
               (function
                 | Rand_read { file; base; range; cpu } -> Some (file, base, range, cpu)
                 | _ -> None)
               (obj (fun file base range cpu -> Rand_read { file; base; range; cpu })
               |> req "file" (fun (f, _, _, _) -> f) int
               |> req "base" (fun (_, b, _, _) -> b) int
               |> req "range" (fun (_, _, r, _) -> r) int
               |> dflt "cpu" ~default:0.0 (fun (_, _, _, c) -> c) float);
             case "compute"
               (function Compute seconds -> Some seconds | _ -> None)
               (obj (fun seconds -> Compute seconds) |> req "seconds" Fun.id float);
             case "advise"
               (function Advise a -> Some a | _ -> None)
               (obj (fun a -> Advise a) |> flat Fun.id advice);
             case "unlink"
               (function Unlink { file } -> Some file | _ -> None)
               (obj (fun file -> Unlink { file }) |> req "file" Fun.id int);
             case "seq"
               (function Seq ops -> Some ops | _ -> None)
               (obj (fun ops -> Seq ops) |> req "body" Fun.id body);
             case "loop"
               (function Loop { times; body } -> Some (times, body) | _ -> None)
               (obj (fun times body -> Loop { times; body })
               |> req "times" fst int |> req "body" snd body);
             case "choice"
               (function
                 | Choice { prob; if_true; if_false } -> Some (prob, if_true, if_false)
                 | _ -> None)
               (obj (fun prob if_true if_false -> Choice { prob; if_true; if_false })
               |> req "prob" (fun (p, _, _) -> p) float
               |> req "then" (fun (_, t, _) -> t) body
               |> dflt "else" ~default:[] (fun (_, _, e) -> e) body);
           ]))

let codec =
  let open Codec in
  seal
    (obj (fun name category ops ->
         { name; category = Option.value category ~default:"custom"; ops })
    |> schema "acfc-wir/1"
    |> req "name" (fun t -> t.name) string
    |> opt "category" (fun t -> Some t.category) string
    |> req "ops" (fun t -> t.ops) (list op))

let to_json t = Codec.encode codec t

let of_json j = Codec.decode ~label codec j

let to_string t = Codec.to_string codec t

let of_string s = Codec.of_string ~label codec s

let save t path = Codec.save codec t path

let load path = Codec.load ~label codec path

let hash t = Digest.to_hex (Digest.string (to_string t))
