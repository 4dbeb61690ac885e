type backend =
  | Null
  | Jsonl of out_channel
  | Csv of out_channel
  | Custom of (Trace.record -> unit)

type t = {
  mutable clock : unit -> float;
  backend : backend;
  metrics : Metrics.t;
  mutable emitted : int;
}

let create ?(clock = fun () -> 0.0) ?(backend = Null) () =
  (match backend with
  | Csv oc ->
    output_string oc Trace.csv_header;
    output_char oc '\n'
  | Null | Jsonl _ | Custom _ -> ());
  { clock; backend; metrics = Metrics.create (); emitted = 0 }

let set_clock t clock = t.clock <- clock

let now t = t.clock ()

let metrics t = t.metrics

let emit t ev =
  t.emitted <- t.emitted + 1;
  match t.backend with
  | Null -> ()
  | Jsonl oc ->
    output_string oc (Json.to_string (Trace.to_json { Trace.time = t.clock (); ev }));
    output_char oc '\n'
  | Csv oc ->
    output_string oc (Trace.to_csv { Trace.time = t.clock (); ev });
    output_char oc '\n'
  | Custom f -> f { Trace.time = t.clock (); ev }

let emitted t = t.emitted

let flush t =
  match t.backend with
  | Jsonl oc | Csv oc -> Stdlib.flush oc
  | Null | Custom _ -> ()
