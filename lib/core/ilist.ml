(* Intrusive doubly-linked lists over shared int-array link columns.

   Instead of one heap node per element, every element is an integer
   slot in a {!Ctab}-style table and the prev/next pointers live in two
   parallel int columns (a {!store}). A list handle is three ints
   (front, back, size); linking and unlinking write four array cells
   and allocate nothing.

   A slot may belong to at most one list per store. Membership is not
   tracked here (that would cost a third column); callers keep a flag or
   an index, and the property tests in [test/test_ilist.ml] and
   [test/test_ctab.ml] drive random op sequences against a plain list
   model to prove order-for-order equivalence. *)

let nil = -1

type store = { mutable prev : int array; mutable next : int array }

type t = { mutable front : int; mutable back : int; mutable size : int }

let make_store cap = { prev = Array.make cap nil; next = Array.make cap nil }

let grow_store s cap =
  let old = Array.length s.prev in
  if cap > old then begin
    let nprev = Array.make cap nil and nnext = Array.make cap nil in
    Array.blit s.prev 0 nprev 0 old;
    Array.blit s.next 0 nnext 0 old;
    s.prev <- nprev;
    s.next <- nnext
  end

let create () = { front = nil; back = nil; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let front t = t.front

let back t = t.back

let push_front s t i =
  s.prev.(i) <- nil;
  s.next.(i) <- t.front;
  if t.front = nil then t.back <- i else s.prev.(t.front) <- i;
  t.front <- i;
  t.size <- t.size + 1

let push_back s t i =
  s.next.(i) <- nil;
  s.prev.(i) <- t.back;
  if t.back = nil then t.front <- i else s.next.(t.back) <- i;
  t.back <- i;
  t.size <- t.size + 1

let remove s t i =
  let p = s.prev.(i) and n = s.next.(i) in
  if p = nil then t.front <- n else s.next.(p) <- n;
  if n = nil then t.back <- p else s.prev.(n) <- p;
  s.prev.(i) <- nil;
  s.next.(i) <- nil;
  t.size <- t.size - 1

let move_front s t i =
  if t.front <> i then begin
    remove s t i;
    push_front s t i
  end

let move_back s t i =
  if t.back <> i then begin
    remove s t i;
    push_back s t i
  end

(* Toward the front (the MRU end); [nil] at the front. *)
let next_toward_front s i = s.prev.(i)

let next_toward_back s i = s.next.(i)

(* Exchange the list positions of slots [a] and [b] (the LRU-SP swap
   step): the two slots exchange places, with explicit handling of the
   adjacent cases. *)
let swap s t a b =
  if a <> b then begin
    let pa = s.prev.(a) and na = s.next.(a) in
    let pb = s.prev.(b) and nb = s.next.(b) in
    if na = b then begin
      (* ... pa a b nb ... -> ... pa b a nb ... *)
      s.prev.(b) <- pa;
      s.next.(b) <- a;
      s.prev.(a) <- b;
      s.next.(a) <- nb;
      if pa = nil then t.front <- b else s.next.(pa) <- b;
      if nb = nil then t.back <- a else s.prev.(nb) <- a
    end
    else if nb = a then begin
      (* ... pb b a na ... -> ... pb a b na ... *)
      s.prev.(a) <- pb;
      s.next.(a) <- b;
      s.prev.(b) <- a;
      s.next.(b) <- na;
      if pb = nil then t.front <- a else s.next.(pb) <- a;
      if na = nil then t.back <- b else s.prev.(na) <- b
    end
    else begin
      s.prev.(a) <- pb;
      s.next.(a) <- nb;
      s.prev.(b) <- pa;
      s.next.(b) <- na;
      if pa = nil then t.front <- b else s.next.(pa) <- b;
      if na = nil then t.back <- b else s.prev.(na) <- b;
      if pb = nil then t.front <- a else s.next.(pb) <- a;
      if nb = nil then t.back <- a else s.prev.(nb) <- a
    end
  end

let iter f s t =
  let i = ref t.front in
  while !i <> nil do
    let next = s.next.(!i) in
    f !i;
    i := next
  done

let to_list s t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s t;
  List.rev !acc

(* O(n) membership walk — invariant checks and tests only. *)
let mem s t i =
  let found = ref false in
  iter (fun j -> if i = j then found := true) s t;
  !found
