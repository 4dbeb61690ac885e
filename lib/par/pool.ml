exception Nested

(* True on any domain (or, for jobs = 1, during any dynamic extent)
   that is executing a pool task. Workers set it once at startup: a
   worker domain never runs anything but tasks. *)
let inside_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let reject_nesting () = if Domain.DLS.get inside_task then raise Nested

let hard_cap = 32

let auto_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

let default_jobs () =
  match Sys.getenv_opt "ACFC_JOBS" with
  | None | Some "" -> 1
  | Some "auto" -> auto_jobs ()
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> min n hard_cap
    | Some _ -> auto_jobs ()
    | None -> 1)

(* {2 Futures} *)

type 'a cell_state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a cell = { mutable state : 'a cell_state }

type 'a future =
  | Now of 'a  (* sequential pool: computed during [async] *)
  | Cell of 'a cell

(* {2 The pool} *)

type shared = {
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work : Condition.t;  (* a task was queued, or [stop] was set *)
  finished : Condition.t;  (* some future completed *)
  mutable stop : bool;
}

type t = {
  n_jobs : int;
  shared : shared option;  (* [None] = sequential stand-in *)
  mutable workers : unit Domain.t list;
}

let jobs t = t.n_jobs

let worker shared =
  Domain.DLS.set inside_task true;
  let rec loop () =
    Mutex.lock shared.lock;
    while Queue.is_empty shared.queue && not shared.stop do
      Condition.wait shared.work shared.lock
    done;
    match Queue.take_opt shared.queue with
    | None ->
      (* stop && empty *)
      Mutex.unlock shared.lock
    | Some task ->
      Mutex.unlock shared.lock;
      task ();
      loop ()
  in
  loop ()

let create ~jobs:n =
  reject_nesting ();
  let n = if n <= 0 then auto_jobs () else min n hard_cap in
  if n = 1 then { n_jobs = 1; shared = None; workers = [] }
  else begin
    let shared =
      {
        queue = Queue.create ();
        lock = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        stop = false;
      }
    in
    let t = { n_jobs = n; shared = Some shared; workers = [] } in
    t.workers <- List.init n (fun _ -> Domain.spawn (fun () -> worker shared));
    t
  end

let shutdown t =
  match t.shared with
  | None -> ()
  | Some shared ->
    Mutex.lock shared.lock;
    shared.stop <- true;
    (* Tasks still queued are abandoned: we only get here after the
       caller collected (or gave up on) every result it needs. *)
    Queue.clear shared.queue;
    Condition.broadcast shared.work;
    Mutex.unlock shared.lock;
    List.iter Domain.join t.workers;
    t.workers <- []

let with_pool ?jobs f =
  let n = match jobs with Some n -> n | None -> default_jobs () in
  let t = create ~jobs:n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [f ()] with the nesting flag set, as the dynamic extent of a
   task: pool re-entry from inside [f] must raise [Nested] under
   jobs = 1 exactly as it would on a worker domain. The flag is
   restored by a match, not [Fun.protect], which would cost a closure
   and a handler of its own per call (a fleet epoch at jobs 1 is one
   call); an exception leaves with its original backtrace. *)
let as_task f =
  Domain.DLS.set inside_task true;
  match f () with
  | v ->
    Domain.DLS.set inside_task false;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Domain.DLS.set inside_task false;
    Printexc.raise_with_backtrace e bt

let async t f =
  reject_nesting ();
  match t.shared with
  | None -> Now (as_task f)
  | Some shared ->
    let cell = { state = Pending } in
    let task () =
      let result =
        match f () with
        | v -> Done v
        | exception e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock shared.lock;
      cell.state <- result;
      Condition.broadcast shared.finished;
      Mutex.unlock shared.lock
    in
    Mutex.lock shared.lock;
    Queue.push task shared.queue;
    Condition.signal shared.work;
    Mutex.unlock shared.lock;
    Cell cell

let await t future =
  reject_nesting ();
  match future with
  | Now v -> v
  | Cell cell ->
    let shared =
      match t.shared with
      | Some s -> s
      | None -> invalid_arg "Pool.await: future from another pool"
    in
    Mutex.lock shared.lock;
    let rec collect () =
      match cell.state with
      | Pending ->
        Condition.wait shared.finished shared.lock;
        collect ()
      | Done v ->
        Mutex.unlock shared.lock;
        v
      | Failed (e, bt) ->
        Mutex.unlock shared.lock;
        Printexc.raise_with_backtrace e bt
    in
    collect ()

let map ?jobs f xs =
  with_pool ?jobs @@ fun t ->
  match t.shared with
  | None -> List.map (fun x -> as_task (fun () -> f x)) xs
  | Some _ ->
    let futures = List.map (fun x -> async t (fun () -> f x)) xs in
    (* Collect every result before raising, so the pool drains and the
       failure we report is the first in input order, not the first in
       completion order. *)
    let results =
      List.map
        (fun future ->
          match await t future with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        futures
    in
    List.map
      (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      results

let run_list ?jobs tasks = map ?jobs (fun task -> task ()) tasks
