(* Host-speed calibration for the end-to-end timings.

   On a host shared with other tenants, the same call can take 1.5x or
   more its usual time for seconds or minutes at a stretch, as
   neighbours come and go. A fixed kernel that belongs to the benchmark
   (so no change to the program under test can speed it up) is timed
   every ~100 ms of measured work; each measured interval is scaled by
   [reference_s] over the mean kernel time of the calibrations that
   bracket it. A uniform slowdown of the host cancels out, while a
   change to the program moves the scaled figure exactly as it moves
   the wall time. *)

let now = Unix.gettimeofday

(* Roughly the kernel's time on an uncontended core of the host the
   baseline was taken on (x86-64, 2 vCPUs), so scaled times read as
   seconds on such a core. *)
let reference_s = 1.0e-3

let table = Array.make 65536 0

(* Pseudo-random read-modify-writes over a 512 KB table: integer and
   cache-bound like the simulator, and allocation-free, so no garbage
   collection lands inside it. *)
let kernel () =
  let t0 = now () in
  let x = ref 1 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0xFFFF_FFFF;
    let k = (!x lsr 8) land 65535 in
    table.(k) <- table.(k) + !x
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

type t = {
  mutable times : float list;  (** kernel times, newest first *)
  mutable count : int;
  mutable since : float;  (** measured seconds since the newest calibration *)
}

let create () = { times = [ kernel () ]; count = 1; since = 0.0 }

let calibrate t =
  t.times <- kernel () :: t.times;
  t.count <- t.count + 1;
  t.since <- 0.0

(* The calibration that an interval starting now follows, calibrating
   first when ~100 ms of work have passed since the last one. *)
let mark t =
  if t.since >= 0.1 then calibrate t;
  t.count - 1

let charge t dt = t.since <- t.since +. dt

(* [scaler t] closes the calibration series and returns the function
   that scales an interval measured after calibration [k]. *)
let scaler t =
  calibrate t;
  let times = Array.of_list (List.rev t.times) in
  fun k dt -> dt *. reference_s /. ((times.(k) +. times.(k + 1)) /. 2.0)

(* Time [f] between two fresh calibrations: [(k, seconds, result)]. *)
let timed t f =
  calibrate t;
  let k = t.count - 1 in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  calibrate t;
  (k, dt, v)

let median_kernel t =
  let a = Array.of_list (List.sort compare t.times) in
  a.(Array.length a / 2)
