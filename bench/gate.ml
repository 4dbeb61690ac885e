type kind = Alloc | Growth | Scaling | Regret

type row = { kind : kind; key : string; limit : float }

type measurement = kind * string * float

let kinds = [ ("alloc", Alloc); ("growth", Growth); ("scaling", Scaling); ("regret", Regret) ]

let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

let family = function Alloc | Growth | Scaling -> "perf" | Regret -> "tournament"

(* A scaling ratio depends on the core count: on fewer cores the row
   is skipped, and on enough it fails below this share of the
   committed speedup. *)
let scaling_cores = 4

let scaling_share = 0.7

let parse_line kind fields =
  let key_words, what =
    match kind with
    | Regret -> (2, "a family, a policy")
    | Alloc | Growth | Scaling -> (1, "a row name")
  in
  match List.rev fields with
  | value :: rkey when List.length rkey = key_words -> (
    match float_of_string_opt value with
    | Some limit when Float.is_finite limit ->
      Ok { kind; key = String.concat " " (List.rev rkey); limit }
    | _ -> Error (Printf.sprintf "%S is not a number" value))
  | _ ->
    Error (Printf.sprintf "a %s row takes %s and a value" (kind_name kind) what)

let parse ~file contents =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let words =
        String.split_on_char ' ' (String.map (function '\t' | '\r' -> ' ' | c -> c) line)
        |> List.filter (( <> ) "")
      in
      let parsed =
        match words with
        | [] -> Ok None
        | w :: _ when w.[0] = '#' -> Ok None
        | k :: fields -> (
          match List.assoc_opt k kinds with
          | None ->
            Error
              (Printf.sprintf
                 "unknown row kind %S (expected alloc, growth, scaling or regret)" k)
          | Some kind -> Result.map Option.some (parse_line kind fields))
      in
      match parsed with
      | Ok None -> go (n + 1) acc rest
      | Ok (Some row) -> go (n + 1) (row :: acc) rest
      | Error msg -> Error (Printf.sprintf "%s:%d: %s" file n msg))
  in
  go 1 [] (String.split_on_char '\n' contents)

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> parse ~file contents

let show kind v =
  match kind with
  | Alloc -> Printf.sprintf "%.2f w/op" v
  | Growth | Scaling -> Printf.sprintf "%.2fx" v
  | Regret -> Printf.sprintf "%.0f" v

let check ppf ~file ~cores ~ran ~measured rows =
  let judged = List.filter (fun r -> List.mem (family r.kind) ran) rows in
  if judged = [] then begin
    Format.fprintf ppf "[gate: no family with rows in %s ran]@." file;
    2
  end
  else begin
    let failures = ref 0 in
    List.iter
      (fun r ->
        let found =
          List.find_map
            (fun (k, key, v) -> if k = r.kind && key = r.key then Some v else None)
            measured
        in
        let line value limit verdict =
          Format.fprintf ppf "  %-7s %-28s %11s   %-20s %s@." (kind_name r.kind) r.key
            value limit verdict
        in
        match (r.kind, found) with
        | Scaling, _ when cores < scaling_cores ->
          line "" "" (Printf.sprintf "skipped: needs %d cores, have %d" scaling_cores cores)
        | _, None ->
          incr failures;
          line "-" "" "FAIL: no measurement"
        | kind, Some v ->
          let ok, limit =
            match kind with
            | Alloc -> (v <= r.limit +. 1e-6, "budget " ^ show kind r.limit)
            | Growth -> (v <= r.limit, "bound " ^ show kind r.limit)
            | Scaling ->
              let floor = scaling_share *. r.limit in
              (v >= floor, "floor " ^ show kind floor)
            | Regret -> (v <= r.limit, "ceiling " ^ show kind r.limit)
          in
          if not ok then incr failures;
          line (show kind v) limit (if ok then "ok" else "FAIL"))
      judged;
    (match
       List.filter
         (fun (k, key, _) ->
           List.mem (family k) ran
           && not (List.exists (fun r -> r.kind = k && r.key = key) rows))
         measured
     with
    | [] -> ()
    | ungated ->
      let names =
        String.concat ", " (List.map (fun (k, key, _) -> kind_name k ^ " " ^ key) ungated)
      in
      Format.fprintf ppf "  ungated (measured, no row in %s): %s@." file names;
      (* The same line as a GitHub Actions annotation, so a new
         measurement flying without a gate shows up on the PR. *)
      if Sys.getenv_opt "GITHUB_ACTIONS" = Some "true" then
        Format.fprintf ppf "::warning title=ungated measurements::%s: %s@." file names);
    if !failures > 0 then begin
      Format.fprintf ppf "[gate FAILED: %d row(s) of %s violated]@." !failures file;
      1
    end
    else begin
      Format.fprintf ppf "[gate passed: %s]@." file;
      0
    end
  end
