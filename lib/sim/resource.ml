(* Float state lives in one unboxed column; a mutable float field in
   this mixed record would box on every update. *)
let wait_i = 0 (* total wait of the started reservations *)

let busy_i = 1 (* busy integral up to [mark_i] *)

let mark_i = 2 (* where the integral stops: an open period's start, or a read *)

let free_i = 3 (* end of the last reservation *)

type t = {
  engine : Engine.t;
  name : string;
  mutable started : int;
  (* Reservations not yet started, in start order: their starts and
     waits, in a power-of-two ring over two columns. A reservation is
     counted as served, and its wait added, once the clock reaches its
     start, so the statistics read what a queue of parked fibers would
     have read. *)
  mutable starts : float array;
  mutable waits : float array;
  mutable head : int;
  mutable pending : int;
  acct : float array;
}

let create engine ?(name = "resource") () =
  let now = Engine.now engine in
  {
    engine;
    name;
    started = 0;
    starts = [||];
    waits = [||];
    head = 0;
    pending = 0;
    acct = [| 0.0; 0.0; now; now |];
  }

let name t = t.name

(* Count as started every pending reservation whose start has come, in
   start order, so the waits are summed in the order a FIFO handoff
   would have added them. *)
let retire t =
  let now = Engine.now t.engine in
  let mask = Array.length t.starts - 1 in
  while t.pending > 0 && t.starts.(t.head) <= now do
    t.acct.(wait_i) <- t.acct.(wait_i) +. t.waits.(t.head);
    t.started <- t.started + 1;
    t.head <- (t.head + 1) land mask;
    t.pending <- t.pending - 1
  done

let grow t =
  let cap = Array.length t.starts in
  let ncap = Stdlib.max 4 (2 * cap) in
  let starts = Array.make ncap 0.0 and waits = Array.make ncap 0.0 in
  for i = 0 to t.pending - 1 do
    let j = (t.head + i) land (cap - 1) in
    starts.(i) <- t.starts.(j);
    waits.(i) <- t.waits.(j)
  done;
  t.starts <- starts;
  t.waits <- waits;
  t.head <- 0

(* Book a reservation that starts when the server frees. Both times are
   read from their slots, so no float crosses this call. *)
let defer t =
  if t.pending = Array.length t.starts then grow t;
  let i = (t.head + t.pending) land (Array.length t.starts - 1) in
  let free = t.acct.(free_i) in
  t.starts.(i) <- free;
  t.waits.(i) <- free -. Engine.now t.engine;
  t.pending <- t.pending + 1

let use t ~service =
  if not (service >= 0.0 && service < Float.infinity) then
    invalid_arg "Resource.use: service must be finite and non-negative";
  if t.pending > 0 then retire t;
  let a = t.acct in
  let now = Engine.now t.engine in
  let free = a.(free_i) in
  if now >= free then begin
    (* Idle: the last busy period ended at [free] (a read may already
       have closed it), and a new one opens now. *)
    a.(busy_i) <- a.(busy_i) +. (free -. a.(mark_i));
    a.(mark_i) <- now;
    t.started <- t.started + 1;
    let finish = now +. service in
    a.(free_i) <- finish;
    Engine.delay_until t.engine finish
  end
  else begin
    defer t;
    let finish = free +. service in
    a.(free_i) <- finish;
    Engine.delay_until t.engine finish
  end

let queue_length t =
  retire t;
  t.pending

let served t =
  retire t;
  t.started

(* Close the integral at now, or at the end of the last busy period if
   the server has since gone idle. *)
let busy_time t =
  let a = t.acct in
  let now = Engine.now t.engine in
  let upto = if now >= a.(free_i) then a.(free_i) else now in
  a.(busy_i) <- a.(busy_i) +. (upto -. a.(mark_i));
  a.(mark_i) <- upto;
  a.(busy_i)

let total_wait t =
  retire t;
  t.acct.(wait_i)
