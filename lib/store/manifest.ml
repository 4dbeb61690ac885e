module Codec = Acfc_obs.Codec

type entry = {
  seq : int;
  kind : Kind.t;
  digest : string;
  bytes : int;
  label : string option;
}

type t = { next_seq : int; entries : entry list }
(* [entries] is kept in ascending [seq] order. *)

let empty = { next_seq = 0; entries = [] }

let entries t = t.entries

let find t ~kind ~digest =
  List.find_opt (fun e -> e.kind = kind && String.equal e.digest digest) t.entries

let resolve t ~label =
  List.find_opt (fun e -> e.label = Some label) t.entries

let by_kind t kind = List.filter (fun e -> e.kind = kind) t.entries

let remove t ~kind ~digest =
  {
    t with
    entries =
      List.filter
        (fun e -> not (e.kind = kind && String.equal e.digest digest))
        t.entries;
  }

let add t ~kind ~digest ~bytes ~label =
  let label_clash =
    match label with
    | None -> None
    | Some l ->
      (match resolve t ~label:l with
      | Some e when e.kind <> kind || not (String.equal e.digest digest) -> Some e
      | _ -> None)
  in
  match label_clash with
  | Some e ->
    Error
      (Printf.sprintf
         "store: label %S is already bound to %s/%s"
         (Option.value ~default:"" label)
         (Kind.to_string e.kind) e.digest)
  | None ->
    (match find t ~kind ~digest with
    | Some e ->
      let e = if e.label = None then { e with label } else e in
      let entries =
        List.map (fun e' -> if e'.seq = e.seq then e else e') t.entries
      in
      Ok ({ t with entries }, e)
    | None ->
      let e = { seq = t.next_seq; kind; digest; bytes; label } in
      Ok ({ next_seq = t.next_seq + 1; entries = t.entries @ [ e ] }, e))

(* {2 Codec} *)

let is_hex_digest s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let entry =
  let open Codec in
  let valid ok msg = check (fun v -> if ok v then Ok () else Error ("", msg)) in
  seal ~expected:"an entry object"
    (obj (fun seq kind digest bytes label -> { seq; kind; digest; bytes; label })
    |> req "seq" (fun e -> e.seq) (valid (fun n -> n >= 0) "sequence must be non-negative" int)
    |> req "kind" (fun e -> e.kind) (enum ~what:"artifact kind" Kind.to_string Kind.of_string)
    |> req "digest"
         (fun e -> e.digest)
         (valid is_hex_digest "expected 32 lowercase hex characters" string)
    |> req "bytes" (fun e -> e.bytes) (valid (fun n -> n >= 0) "size must be non-negative" int)
    |> opt "label"
         (fun e -> e.label)
         (valid (fun l -> l <> "") "label must be non-empty" string))

(* Sequence numbers strictly increase below [next_seq], and a label
   names one artifact. *)
let invariants t =
  let rec increasing prev = function
    | [] -> Ok ()
    | e :: rest ->
      if e.seq <= prev then Error (".entries", "sequence numbers must be strictly increasing")
      else if e.seq >= t.next_seq then Error (".entries", "sequence number exceeds next_seq")
      else increasing e.seq rest
  in
  let seen = Hashtbl.create 16 in
  let rec labels = function
    | [] -> Ok ()
    | { label = Some l; digest; kind; _ } :: rest ->
      (match Hashtbl.find_opt seen l with
      | Some (k', d') when k' <> kind || not (String.equal d' digest) ->
        Error (".entries", Printf.sprintf "label %S bound to two digests" l)
      | _ ->
        Hashtbl.replace seen l (kind, digest);
        labels rest)
    | _ :: rest -> labels rest
  in
  Result.bind (increasing (-1) t.entries) (fun () -> labels t.entries)

let codec =
  let open Codec in
  check invariants
    (seal ~expected:"a manifest object"
       (obj (fun next_seq entries -> { next_seq; entries })
       |> schema "acfc-store/1"
       |> req "next_seq" (fun t -> t.next_seq) int
       |> req "entries" (fun t -> t.entries) (list ~expected:"a list of entries" entry)))

let label = "store"

let to_string t = Codec.to_string codec t

let of_string s = Codec.of_string ~label codec s

let save t path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "manifest" ".tmp" in
  let oc = open_out tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc (to_string t);
         output_char oc '\n')
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path = Codec.load ~label codec path
