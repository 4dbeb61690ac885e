(* Indexed pending-request queue for the disk.

   The drive's dispatch decision used to fold and re-filter an unsorted
   waiter list on every request completion — O(n) per event, O(n²) per
   busy period. This module replaces it with structures whose per-event
   cost is constant or logarithmic while reproducing the old picker's
   choices exactly:

   - FCFS: a plain FIFO, an int ring. Sequence numbers are assigned in
     [add] order, so popping the front is exactly "minimum sequence
     number".
   - SCAN: the classic two-heap elevator. The [up] heap orders waiters
     by (addr, seq) ascending — "nearest request at or above the head,
     oldest first on address ties" is its top; the [down] heap orders by
     addr descending then seq ascending — nearest request at or below
     the head. Waiters are partitioned between the heaps against the
     head position, and because the head only moves monotonically within
     a sweep, each waiter migrates between heaps at most once per sweep
     reversal (amortised O(log n) per event; still correct, merely
     slower, if the head ever jumped arbitrarily). When the sweep
     direction has no candidates the sweep reverses, and the other
     heap's top is exactly the old picker's choice: every remaining
     address is strictly on that side, so minimum distance is the
     nearest address there, ties to the oldest arrival.

   Waiters are int keys (the disk parks each request's fiber under its
   id), so both sides are int arrays: the ring and the elevator heaps,
   hand-specialised on parallel int columns rather than built on
   {!Acfc_sim.Heap}. The dispatch loop then does no allocation at all
   (the generic heap would box each (addr, seq, key) element and make
   an indirect [leq] call per sift step).

   [Naive] is a straight port of the original list-based picker, kept as
   the reference implementation for the equivalence tests and the bench
   [check] replay. *)

type discipline = Fcfs | Scan

(* A binary heap over (addr, seq, key) triples kept in parallel int
   arrays. [asc = true] orders by (addr, seq) ascending; [asc = false]
   by addr descending then seq ascending. Seqs are unique, so the order
   is total either way. *)
module Eheap = struct
  type t = {
    asc : bool;
    mutable addrs : int array;
    mutable seqs : int array;
    mutable keys : int array;
    mutable size : int;
  }

  let create asc = { asc; addrs = [||]; seqs = [||]; keys = [||]; size = 0 }

  let length t = t.size

  (* Does slot [i] sort strictly before slot [j]? *)
  let before t i j =
    let ai = t.addrs.(i) and aj = t.addrs.(j) in
    if ai = aj then t.seqs.(i) < t.seqs.(j)
    else if t.asc then ai < aj
    else ai > aj

  let swap t i j =
    let a = t.addrs.(i) in
    t.addrs.(i) <- t.addrs.(j);
    t.addrs.(j) <- a;
    let s = t.seqs.(i) in
    t.seqs.(i) <- t.seqs.(j);
    t.seqs.(j) <- s;
    let k = t.keys.(i) in
    t.keys.(i) <- t.keys.(j);
    t.keys.(j) <- k

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let first = ref i in
    if l < t.size && before t l !first then first := l;
    if r < t.size && before t r !first then first := r;
    if !first <> i then begin
      swap t i !first;
      sift_down t !first
    end

  let grow t =
    let cap = Array.length t.addrs in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let naddrs = Array.make ncap 0 and nseqs = Array.make ncap 0 in
      let nkeys = Array.make ncap 0 in
      Array.blit t.addrs 0 naddrs 0 t.size;
      Array.blit t.seqs 0 nseqs 0 t.size;
      Array.blit t.keys 0 nkeys 0 t.size;
      t.addrs <- naddrs;
      t.seqs <- nseqs;
      t.keys <- nkeys
    end

  let push t ~addr ~seq key =
    grow t;
    let i = t.size in
    t.addrs.(i) <- addr;
    t.seqs.(i) <- seq;
    t.keys.(i) <- key;
    t.size <- i + 1;
    sift_up t i

  (* Precondition for the rest: non-empty (callers check [length]). *)
  let top_addr t = t.addrs.(0)

  let drop_top t =
    let last = t.size - 1 in
    t.size <- last;
    t.addrs.(0) <- t.addrs.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.keys.(0) <- t.keys.(last);
    if last > 0 then sift_down t 0

  let pop t =
    let key = t.keys.(0) in
    drop_top t;
    key

  let move ~from ~into =
    push into ~addr:from.addrs.(0) ~seq:from.seqs.(0) from.keys.(0);
    drop_top from
end

type scan_state = {
  up : Eheap.t;  (* candidates at or above the head *)
  down : Eheap.t;  (* candidates at or below the head *)
  mutable last_head : int;  (* partition point for new arrivals *)
}

(* FIFO of keys: a power-of-two ring, empty until the first [add]. *)
type ring = { mutable buf : int array; mutable first : int }

type impl =
  | Fifo of ring
  | Elevator of scan_state

type t = {
  discipline : discipline;
  mutable len : int;
  mutable next_seq : int;
  mutable sweep_up : bool;
  impl : impl;
}

let create discipline =
  let impl =
    match discipline with
    | Fcfs -> Fifo { buf = [||]; first = 0 }
    | Scan ->
      Elevator { up = Eheap.create true; down = Eheap.create false; last_head = 0 }
  in
  { discipline; len = 0; next_seq = 0; sweep_up = true; impl }

let discipline t = t.discipline

let length t = t.len

let is_empty t = t.len = 0

let sweep_up t = t.sweep_up

(* Append to a ring holding [len] keys, doubling it when full. *)
let ring_push r ~len key =
  let cap = Array.length r.buf in
  if len = cap then begin
    let buf = Array.make (Stdlib.max 16 (2 * cap)) 0 in
    for i = 0 to len - 1 do
      buf.(i) <- r.buf.((r.first + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.first <- 0
  end;
  r.buf.((r.first + len) land (Array.length r.buf - 1)) <- key

let add t ~addr key =
  (match t.impl with
  | Fifo r -> ring_push r ~len:t.len key
  | Elevator s ->
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    (* Best-effort placement against the last known head; [pick]
       migrates anything the head has since passed. *)
    let goes_up = if t.sweep_up then addr >= s.last_head else addr > s.last_head in
    Eheap.push (if goes_up then s.up else s.down) ~addr ~seq key);
  t.len <- t.len + 1

(* Repartition both heaps against the current head. Ordered tops make
   each direction a prefix drain: once the top is on the correct side,
   so is the rest of that heap. While sweeping up, "at or above head"
   belongs to [up] and strictly below to [down]; sweeping down, "at or
   below" belongs to [down] and strictly above to [up]. *)
let repartition_up_sweep s head =
  while Eheap.length s.down > 0 && Eheap.top_addr s.down >= head do
    Eheap.move ~from:s.down ~into:s.up
  done;
  while Eheap.length s.up > 0 && Eheap.top_addr s.up < head do
    Eheap.move ~from:s.up ~into:s.down
  done

let repartition_down_sweep s head =
  while Eheap.length s.up > 0 && Eheap.top_addr s.up <= head do
    Eheap.move ~from:s.up ~into:s.down
  done;
  while Eheap.length s.down > 0 && Eheap.top_addr s.down > head do
    Eheap.move ~from:s.down ~into:s.up
  done

let pick t ~head =
  if t.len = 0 then invalid_arg "Sched_queue.pick: empty queue";
  t.len <- t.len - 1;
  match t.impl with
  | Fifo r ->
    let key = r.buf.(r.first) in
    r.first <- (r.first + 1) land (Array.length r.buf - 1);
    key
  | Elevator s ->
    s.last_head <- head;
    if t.sweep_up then begin
      repartition_up_sweep s head;
      if Eheap.length s.up > 0 then Eheap.pop s.up
      else begin
        (* Nothing ahead: reverse the sweep. Every waiter is below
           [head], so the nearest is the down heap's top. *)
        t.sweep_up <- false;
        Eheap.pop s.down
      end
    end
    else begin
      repartition_down_sweep s head;
      if Eheap.length s.down > 0 then Eheap.pop s.down
      else begin
        t.sweep_up <- true;
        Eheap.pop s.up
      end
    end

(* The original unsorted-list implementation (one fold per pick for
   FCFS; a filter plus a fold for SCAN), verbatim semantics. O(n) per
   pick — reference only. *)
module Naive = struct
  type 'a waiter = { w_addr : int; w_seq : int; payload : 'a }

  type 'a t = {
    discipline : discipline;
    mutable queue : 'a waiter list;
    mutable next_seq : int;
    mutable sweep_up : bool;
  }

  let create discipline = { discipline; queue = []; next_seq = 0; sweep_up = true }

  let length t = List.length t.queue

  let sweep_up t = t.sweep_up

  let add t ~addr payload =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.queue <- { w_addr = addr; w_seq = seq; payload } :: t.queue

  let pick t ~head =
    match t.queue with
    | [] -> None
    | queue ->
      let best =
        match t.discipline with
        | Fcfs ->
          List.fold_left
            (fun best w ->
              match best with Some b when b.w_seq < w.w_seq -> best | _ -> Some w)
            None queue
        | Scan ->
          let ahead =
            List.filter
              (fun w -> if t.sweep_up then w.w_addr >= head else w.w_addr <= head)
              queue
          in
          let candidates =
            match ahead with
            | [] ->
              t.sweep_up <- not t.sweep_up;
              queue
            | _ -> ahead
          in
          List.fold_left
            (fun best w ->
              match best with
              | None -> Some w
              | Some b ->
                let bd = abs (b.w_addr - head) and wd = abs (w.w_addr - head) in
                if wd < bd || (wd = bd && w.w_seq < b.w_seq) then Some w else best)
            None candidates
      in
      (match best with
      | Some w ->
        t.queue <- List.filter (fun x -> x != w) t.queue;
        Some w.payload
      | None -> None)
end
