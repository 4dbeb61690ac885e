(* Columnar block/entry table: flat int arrays instead of one
   heap-allocated record per block on the steady-state cache path.

   Every resident (or placeholder-targeted) block is a slot — an index
   into parallel int columns holding identity, state bits, pin count,
   level, owning manager and the intrusive list links for the BUF
   global list and the ACM level lists. Allocating and releasing a slot
   is a free-list pop/push; touching state is an int-array store. The
   only heap values on the hot path are the [Block.t] pairs handed in
   by callers, never per-entry records.

   Slots are recycled LIFO via the free list; property tests in
   [test/test_ctab.ml] cover alloc/release churn, free-list reuse and
   growth. *)

type t = {
  mutable cap : int;
  mutable file : int array; (* -1 = free slot *)
  mutable index : int array;
  mutable key : int array; (* Block.pack of (file, index) *)
  mutable owner : int array; (* pid that faulted the block in *)
  mutable flags : int array; (* bit set, see below *)
  mutable pinned : int array; (* pin count *)
  mutable level : int array; (* ACM level priority *)
  mutable managed : int array; (* managing pid, -1 = kernel-managed *)
  mutable ph_head : int array; (* first incoming placeholder, -1 *)
  global : Ilist.store; (* BUF global-position list links *)
  lvl : Ilist.store; (* ACM level-list links *)
  mutable free_next : int array;
  mutable free : int; (* free-list head, -1 = full *)
  mutable live : int;
}

let dirty_bit = 1

let referenced_bit = 2

let clock_bit = 4

let temp_bit = 8

let init_range t lo hi =
  for i = lo to hi - 1 do
    t.file.(i) <- -1;
    t.free_next.(i) <- (if i + 1 < hi then i + 1 else -1)
  done

let create ?(initial = 16) () =
  let cap = max 1 initial in
  let t =
    {
      cap;
      file = Array.make cap (-1);
      index = Array.make cap 0;
      key = Array.make cap 0;
      owner = Array.make cap 0;
      flags = Array.make cap 0;
      pinned = Array.make cap 0;
      level = Array.make cap 0;
      managed = Array.make cap (-1);
      ph_head = Array.make cap (-1);
      global = Ilist.make_store cap;
      lvl = Ilist.make_store cap;
      free_next = Array.make cap (-1);
      free = 0;
      live = 0;
    }
  in
  init_range t 0 cap;
  t

let capacity t = t.cap

let live t = t.live

let grow_col a cap init =
  let n = Array.make cap init in
  Array.blit a 0 n 0 (Array.length a);
  n

let grow t =
  let old = t.cap in
  let cap = old * 2 in
  t.file <- grow_col t.file cap (-1);
  t.index <- grow_col t.index cap 0;
  t.key <- grow_col t.key cap 0;
  t.owner <- grow_col t.owner cap 0;
  t.flags <- grow_col t.flags cap 0;
  t.pinned <- grow_col t.pinned cap 0;
  t.level <- grow_col t.level cap 0;
  t.managed <- grow_col t.managed cap (-1);
  t.ph_head <- grow_col t.ph_head cap (-1);
  t.free_next <- grow_col t.free_next cap (-1);
  Ilist.grow_store t.global cap;
  Ilist.grow_store t.lvl cap;
  t.cap <- cap;
  init_range t old cap;
  t.free <- old

let alloc t ~file ~index ~key ~owner =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.free_next.(s);
  t.file.(s) <- file;
  t.index.(s) <- index;
  t.key.(s) <- key;
  t.owner.(s) <- owner;
  t.flags.(s) <- 0;
  t.pinned.(s) <- 0;
  t.level.(s) <- 0;
  t.managed.(s) <- -1;
  t.ph_head.(s) <- -1;
  t.live <- t.live + 1;
  s

let release t s =
  t.file.(s) <- -1;
  t.free_next.(s) <- t.free;
  t.free <- s;
  t.live <- t.live - 1

let is_free t s = t.file.(s) < 0

let block t s = Block.make ~file:t.file.(s) ~index:t.index.(s)
