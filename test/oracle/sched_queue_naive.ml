(* The disk queue's original unsorted-list picker (one fold per pick
   for FCFS; a filter plus a fold for SCAN), verbatim semantics, over
   any payload: the reference {!Acfc_disk.Sched_queue} is held to by
   the equivalence tests and the bench [check] replay. O(n) per pick —
   reference only. *)

type discipline = Acfc_disk.Sched_queue.discipline = Fcfs | Scan

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
