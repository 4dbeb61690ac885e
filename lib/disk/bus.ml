open Acfc_sim

type t = Resource.t

let create engine ?(name = "scsi-bus") () = Resource.create engine ~name ()

let transfer t ~duration = Resource.use t ~service:duration

let set_obs t obs =
  match obs with
  | None -> ()
  | Some sink ->
    let m = Acfc_obs.Sink.metrics sink in
    let g label read =
      Acfc_obs.Metrics.gauge m (Printf.sprintf "bus.%s.%s" (Resource.name t) label) read
    in
    g "busy_s" (fun () -> Resource.busy_time t);
    g "wait_s" (fun () -> Resource.total_wait t);
    g "served" (fun () -> float_of_int (Resource.served t));
    g "queue_depth" (fun () -> float_of_int (Resource.queue_length t))
