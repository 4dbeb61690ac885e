(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name, wall-clock start
   and end, the span that encloses it and the unit it belongs to. Spans
   are appended to a growable buffer while the run executes and written
   out once, at exit, so recording costs two clock reads and one record
   per call. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  unit_id : string;
  words : float;  (** minor words allocated on this domain inside the span *)
}

type t = { mutable spans : span list; mutable next : int; mutable open_ : int list }

let create () = { spans = []; next = 0; open_ = [] }

let now = Unix.gettimeofday

(* [with_span t ~unit_id name f] runs [f] inside a span nested in the
   innermost open one; the span is recorded even when [f] raises. *)
let with_span t ~unit_id name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let w0 = Gc.minor_words () in
  let start = now () in
  let finish () =
    let stop = now () in
    let words = Gc.minor_words () -. w0 in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; start; stop; parent; unit_id; words } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans

(* The span closed most recently. *)
let last t = List.hd t.spans

let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part of it its direct
   children cover. Children of one span never overlap (a single caller
   runs them one after another), so the covered part is their sum. *)
let self_times t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    t.spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    (spans t)

(* Total and self seconds per span name, sorted by name. *)
let by_name t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let total, self', n =
        Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (total +. duration s, self' +. self, n + 1))
    (self_times t);
  List.sort compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [])

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\
             \"unit\":%S,\"self_s\":%.6f,\"minor_words\":%.0f}\n"
            s.id s.name s.start s.stop s.parent s.unit_id self s.words)
        (self_times t))
