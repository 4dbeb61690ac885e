type error = string * string (* path, message *)

type 'a t = {
  enc : 'a -> Json.t;
  dec : string -> Json.t -> ('a, error) result;  (* path -> value *)
}

let ( let* ) = Result.bind

let fail path msg = Error (path, msg)

let at path = Result.map_error (fun (sub, msg) -> (path ^ sub, msg))

(* {2 Running a codec} *)

let error ~label (path, msg) = Printf.sprintf "%s: %s at %s" label msg path

let encode c v = c.enc v

let decode ~label c j = Result.map_error (error ~label) (c.dec "$" j)

let to_string c v = Json.to_string (c.enc v)

let of_string ~label c s =
  match Json.of_string s with
  | Error e -> Error (label ^ ": invalid JSON: " ^ e)
  | Ok j -> decode ~label c j

let save c v path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string c v ^ "\n"))

let load ~label c path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (label ^ ": " ^ e)
  | contents -> of_string ~label c contents

(* {2 Scalars} *)

let scalar expected enc read =
  {
    enc;
    dec =
      (fun path j ->
        match read j with Some v -> Ok v | None -> fail path ("expected " ^ expected));
  }

let int_limit = 1 lsl 53

(* The encoders refuse what the decoders would reject: beyond 2^53 a
   [Num] no longer reads back as the same integer, and JSON has no
   number for NaN or an infinity. *)
let int =
  scalar "an integer"
    (fun n ->
      if n > int_limit || n < -int_limit then
        invalid_arg (Printf.sprintf "Codec.int: %d is beyond 2^53 and would not read back" n);
      Json.Num (float_of_int n))
    Json.to_int

let float =
  scalar "a number"
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg (Printf.sprintf "Codec.float: %F has no JSON form" x);
      Json.Num x)
    Json.to_num

let string = scalar "a string" (fun s -> Json.Str s) Json.to_str

let bool = scalar "a boolean" (fun b -> Json.Bool b) Json.to_bool

let unknown ~what ?expected s =
  Printf.sprintf "unknown %s %S%s" what s
    (match expected with None -> "" | Some e -> " (expected " ^ e ^ ")")

let enum ~what ?expected to_s of_s =
  {
    enc = (fun v -> Json.Str (to_s v));
    dec =
      (fun path j ->
        let* s = string.dec path j in
        match of_s s with Some v -> Ok v | None -> fail path (unknown ~what ?expected s));
  }

(* "a, b or c" *)
let or_list names =
  match List.rev names with
  | [] -> ""
  | [ only ] -> only
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last

let table ~what entries =
  enum ~what
    ~expected:(or_list (List.map fst entries))
    (fun v -> fst (List.find (fun (_, x) -> x = v) entries))
    (fun s -> List.assoc_opt s entries)

let named ~what ~expected table c =
  {
    enc =
      (fun v ->
        match List.find_opt (fun (_, x) -> x = v) table with
        | Some (name, _) -> Json.Str name
        | None -> c.enc v);
    dec =
      (fun path -> function
        | Json.Str s ->
          (match List.assoc_opt s table with
          | Some v -> Ok v
          | None -> fail path (unknown ~what ~expected s))
        | j -> c.dec path j);
  }

(* {2 Containers} *)

(* [f i x] over the elements in order, stopping at the first error. *)
let map_result f l =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* v = f i x in
      go (i + 1) (v :: acc) rest
  in
  go 0 [] l

let list ?(expected = "a list") c =
  {
    enc = (fun l -> Json.List (List.map c.enc l));
    dec =
      (fun path -> function
        | Json.List items ->
          map_result (fun i x -> c.dec (Printf.sprintf "%s[%d]" path i) x) items
        | _ -> fail path ("expected " ^ expected));
  }

let dict ?(expected = "an object") key value =
  let key_name k =
    match key.enc k with
    | Json.Str s -> s
    | _ -> invalid_arg "Codec.dict: keys must encode as strings"
  in
  {
    enc = (fun l -> Json.Obj (List.map (fun (k, v) -> (key_name k, value.enc v)) l));
    dec =
      (fun path -> function
        | Json.Obj members ->
          map_result
            (fun _ (name, j) ->
              let* k = key.dec path (Json.Str name) in
              let* v = value.dec (path ^ "." ^ name) j in
              Ok (k, v))
            members
        | _ -> fail path ("expected " ^ expected));
  }

(* {2 Checks} *)

let conv proj inj c =
  {
    enc = (fun v -> c.enc (proj v));
    dec =
      (fun path j ->
        let* a = c.dec path j in
        at path (inj a));
  }

let check f c = conv Fun.id (fun v -> Result.map (fun () -> v) (f v)) c

let expect what c =
  let whole path _ = (path, "expected " ^ what) in
  { c with dec = (fun path j -> Result.map_error (whole path) (c.dec path j)) }

(* {2 Objects}

   [enc_f o tail] puts the members it writes, in order, before [tail].
   [known] lists the member names the description accepts for these
   members (a variant's depend on its tag, so it can fail); sealing
   checks them before [dec_f] decodes anything. *)

type members = (string * Json.t) list

type ('o, 'f) fields = {
  enc_f : 'o -> members -> members;
  known : string -> members -> (string list, error) result;
  dec_f : string -> members -> ('f, error) result;
}

let obj ctor =
  { enc_f = (fun _ tail -> tail); known = (fun _ _ -> Ok []); dec_f = (fun _ _ -> Ok ctor) }

let missing name path = fail path (Printf.sprintf "missing required field %S" name)

(* A member that [write] puts before the tail, read through [read] or
   from [absent] when the document lacks it. *)
let member name ~write ~read ~absent f =
  {
    enc_f = (fun o tail -> f.enc_f o (write o tail));
    known = (fun path m -> Result.map (List.cons name) (f.known path m));
    dec_f =
      (fun path m ->
        let* k = f.dec_f path m in
        let* v =
          match List.assoc_opt name m with
          | Some j -> read (path ^ "." ^ name) j
          | None -> absent path
        in
        Ok (k v));
  }

let req name get c =
  member name
    ~write:(fun o tail -> (name, c.enc (get o)) :: tail)
    ~read:c.dec ~absent:(missing name)

let opt name get c =
  member name
    ~write:(fun o tail -> match get o with Some v -> (name, c.enc v) :: tail | None -> tail)
    ~read:(fun path j -> Result.map Option.some (c.dec path j))
    ~absent:(fun _ -> Ok None)

let dflt name ~default get c =
  member name
    ~write:(fun o tail ->
      let v = get o in
      if v = default then tail else (name, c.enc v) :: tail)
    ~read:c.dec ~absent:(fun _ -> Ok default)

let schema version f =
  let pinned =
    check
      (fun s ->
        if s = version then Ok ()
        else Error ("", Printf.sprintf "unsupported schema %S (expected %s)" s version))
      string
  in
  req "schema" (fun _ -> version) pinned
    { f with dec_f = (fun path m -> Result.map (fun k _ -> k) (f.dec_f path m)) }

let flat get sub f =
  {
    enc_f = (fun o tail -> f.enc_f o (sub.enc_f (get o) tail));
    known =
      (fun path m ->
        let* names = f.known path m in
        let* more = sub.known path m in
        Ok (more @ names));
    dec_f =
      (fun path m ->
        let* k = f.dec_f path m in
        let* v = sub.dec_f path m in
        Ok (k v));
  }

let seal_result ?(expected = "an object") f =
  {
    enc = (fun o -> Json.Obj (f.enc_f o []));
    dec =
      (fun path -> function
        | Json.Obj m ->
          let rec distinct = function
            | [] -> Ok ()
            | (name, _) :: rest ->
              if List.mem_assoc name rest then
                fail path (Printf.sprintf "duplicate field %S" name)
              else distinct rest
          in
          let* () = distinct m in
          let* names = f.known path m in
          let* () =
            match List.find_opt (fun (name, _) -> not (List.mem name names)) m with
            | Some (name, _) -> fail path (Printf.sprintf "unknown field %S" name)
            | None -> Ok ()
          in
          let* r = f.dec_f path m in
          at path r
        | _ -> fail path ("expected " ^ expected));
  }

let seal ?expected f =
  seal_result ?expected { f with dec_f = (fun path m -> Result.map Result.ok (f.dec_f path m)) }

(* {2 Tagged variants} *)

type 'a case = Case : string * ('a -> 't option) * ('t, 'a) fields -> 'a case

let case tag proj fields = Case (tag, proj, fields)

let variant ~tag ~what cases =
  (* Decode only: cases hold functions, which [table]'s encoder
     could not compare. *)
  let tags = table ~what (List.map (fun (Case (name, _, _) as c) -> (name, c)) cases) in
  let find path m =
    match List.assoc_opt tag m with
    | None -> missing tag path
    | Some j -> tags.dec (path ^ "." ^ tag) j
  in
  {
    enc_f =
      (fun v tail ->
        let rec go = function
          | [] -> invalid_arg ("Codec.variant: no case for a " ^ what)
          | Case (name, proj, f) :: rest ->
            (match proj v with
            | Some t -> (tag, Json.Str name) :: f.enc_f t tail
            | None -> go rest)
        in
        go cases);
    known =
      (fun path m ->
        let* (Case (_, _, f)) = find path m in
        Result.map (List.cons tag) (f.known path m));
    dec_f =
      (fun path m ->
        let* (Case (_, _, f)) = find path m in
        f.dec_f path m);
  }

(* {2 Recursion} *)

let fix f =
  let rec self =
    { enc = (fun v -> (Lazy.force c).enc v); dec = (fun path j -> (Lazy.force c).dec path j) }
  and c = lazy (f self) in
  self
