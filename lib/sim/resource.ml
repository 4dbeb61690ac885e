(* Float statistics live in one unboxed column; a mutable float field
   in this mixed record would box on every update. *)
let total_wait_i = 0

let busy_integral_i = 1

let last_change_i = 2

type t = {
  engine : Engine.t;
  name : string;
  servers : int;
  mutable held : int;
  waiters : Engine.waitq;
  mutable served : int;
  acct : float array; (* total wait, busy-time integral, its last update *)
}

let create engine ?(name = "resource") ~servers () =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  {
    engine;
    name;
    servers;
    held = 0;
    waiters = Engine.waitq ();
    served = 0;
    acct = [| 0.0; 0.0; Engine.now engine |];
  }

let name t = t.name

let advance_integral t =
  let now = Engine.now t.engine in
  let a = t.acct in
  a.(busy_integral_i) <-
    a.(busy_integral_i) +. (float_of_int t.held *. (now -. a.(last_change_i)));
  a.(last_change_i) <- now

let acquire t =
  if t.held < t.servers && Engine.waiters t.waiters = 0 then begin
    advance_integral t;
    t.held <- t.held + 1;
    t.served <- t.served + 1
  end
  else begin
    let enqueued_at = Engine.now t.engine in
    Engine.park t.engine t.waiters;
    (* Woken by [release]: the server was handed to us directly. *)
    t.acct.(total_wait_i) <-
      t.acct.(total_wait_i) +. (Engine.now t.engine -. enqueued_at);
    t.served <- t.served + 1
  end

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: not held";
  (* Hand over without decrementing [held]: the server stays busy. The
     waiter wakes at the current instant, so FIFO order is preserved. *)
  if not (Engine.wake_one t.engine t.waiters) then begin
    advance_integral t;
    t.held <- t.held - 1
  end

let use t ~service =
  acquire t;
  (match Engine.delay t.engine service with
  | () -> ()
  | exception e ->
    release t;
    raise e);
  release t

let in_use t = t.held

let queue_length t = Engine.waiters t.waiters

let served t = t.served

let busy_time t =
  advance_integral t;
  t.acct.(busy_integral_i)

let total_wait t = t.acct.(total_wait_i)
