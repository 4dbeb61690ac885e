module Block = Acfc_core.Block
module Pid = Acfc_core.Pid

type entry = { pid : Pid.t; block : Block.t; hit : bool; prefetch : bool }

type t = entry array

let demand ?pid ?(include_prefetch = false) t =
  let wanted e =
    (include_prefetch || not e.prefetch)
    && match pid with Some p -> Pid.equal p e.pid | None -> true
  in
  Array.to_list t
  |> List.filter wanted
  |> List.map (fun e -> e.block)
  |> Array.of_list

let of_blocks ?(pid = Pid.make 0) trace =
  Array.map (fun block -> { pid; block; hit = false; prefetch = false }) trace

let magic = "acfc-trace-v1"

let render t =
  let b = Buffer.create (64 + (Array.length t * 16)) in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Array.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %d %c %c\n" (Pid.to_int e.pid) (Block.file e.block)
           (Block.index e.block)
           (if e.hit then 'h' else 'm')
           (if e.prefetch then 'p' else 'd')))
    t;
  Buffer.contents b

let save t oc = output_string oc (render t)

(* One reference line, the file's line [line]. Every malformed field is
   one [Failure] naming the line, and so is a block [Block.make] or
   [Block.pack] refuses, or a negative pid. *)
let parse_entry ~line text =
  let fail reason = failwith (Printf.sprintf "line %d: %s" line reason) in
  match String.split_on_char ' ' text with
  | [ pid; file; index; hm; dp ] ->
    let int_of s =
      match int_of_string_opt s with Some n -> n | None -> fail (Printf.sprintf "bad integer %S" s)
    in
    let flag s ~yes ~no what =
      if s = yes then true else if s = no then false else fail (Printf.sprintf "bad %s flag %S" what s)
    in
    let hit = flag hm ~yes:"h" ~no:"m" "hit" in
    let prefetch = flag dp ~yes:"p" ~no:"d" "prefetch" in
    let pid = int_of pid in
    let file = int_of file in
    let index = int_of index in
    (try
       let block = Block.make ~file ~index in
       ignore (Block.pack block);
       { pid = Pid.make pid; block; hit; prefetch }
     with Invalid_argument reason -> fail reason)
  | _ -> fail "expected \"<pid> <file> <index> <h|m> <d|p>\""

let parse s =
  match String.split_on_char '\n' s with
  | [] | [ "" ] -> failwith "empty file"
  | header :: rest ->
    if header <> magic then failwith (Printf.sprintf "line 1: bad trace header (expected %s)" magic);
    rest
    |> List.mapi (fun i text -> (i + 2, text))
    |> List.filter (fun (_, text) -> text <> "")
    |> List.map (fun (line, text) -> parse_entry ~line text)
    |> Array.of_list

let load ic = parse (In_channel.input_all ic)
