(* Unit cases and a list-model property for {!Ilist}, the intrusive
   lists the cache keeps its global order and level lists in. *)

open Acfc_core
open Tutil

let store () = Ilist.make_store 16

let chk_order msg want s l = chk_bool msg true (Ilist.to_list s l = want)

let basic_order () =
  let s = store () and l = Ilist.create () in
  Ilist.push_back s l 0;
  Ilist.push_back s l 1;
  Ilist.push_front s l 2;
  chk_int "length" 3 (Ilist.length l);
  chk_order "front to back" [ 2; 0; 1 ] s l;
  chk_int "front" 2 (Ilist.front l);
  chk_int "back" 1 (Ilist.back l)

let remove_middle () =
  let s = store () and l = Ilist.create () in
  List.iter (Ilist.push_back s l) [ 1; 2; 3 ];
  Ilist.remove s l 2;
  chk_order "removed" [ 1; 3 ] s l;
  chk_bool "slot detached" false (Ilist.mem s l 2);
  chk_int "length" 2 (Ilist.length l);
  chk_int "links unlinked" Ilist.nil (Ilist.next_toward_back s 2);
  chk_int "neighbours joined" 3 (Ilist.next_toward_back s 1)

let remove_ends () =
  let s = store () and l = Ilist.create () in
  List.iter (Ilist.push_back s l) [ 1; 2 ];
  Ilist.remove s l 1;
  chk_order "front gone" [ 2 ] s l;
  chk_int "new front" 2 (Ilist.front l);
  Ilist.remove s l 2;
  chk_bool "empty" true (Ilist.is_empty l);
  chk_int "front nil" Ilist.nil (Ilist.front l);
  chk_int "back nil" Ilist.nil (Ilist.back l);
  Ilist.push_front s l 1;
  chk_order "reusable once empty" [ 1 ] s l

(* The cache keeps many lists (the global order is one store, every
   level of every manager another list over a second): operations on
   one list leave the others' orders alone. *)
let lists_share_a_store () =
  let s = store () in
  let a = Ilist.create () and b = Ilist.create () in
  List.iter (Ilist.push_back s a) [ 0; 2; 4; 6 ];
  List.iter (Ilist.push_back s b) [ 1; 3; 5 ];
  Ilist.move_front s a 4;
  Ilist.remove s b 3;
  Ilist.swap s a 0 6;
  Ilist.move_back s b 1;
  chk_order "list a" [ 4; 6; 2; 0 ] s a;
  chk_order "list b" [ 5; 1 ] s b;
  Ilist.push_back s a 3;
  chk_order "a slot changes lists" [ 4; 6; 2; 0; 3 ] s a;
  chk_order "list b untouched" [ 5; 1 ] s b

let move_front_back () =
  let s = store () and l = Ilist.create () in
  List.iter (Ilist.push_back s l) [ 1; 2; 3 ];
  Ilist.move_front s l 3;
  chk_order "moved front" [ 3; 1; 2 ] s l;
  Ilist.move_front s l 3;
  chk_order "idempotent at front" [ 3; 1; 2 ] s l;
  Ilist.move_back s l 1;
  chk_order "moved back" [ 3; 2; 1 ] s l;
  Ilist.move_back s l 1;
  chk_order "idempotent at back" [ 3; 2; 1 ] s l;
  chk_int "length stable" 3 (Ilist.length l)

let move_singleton () =
  let s = store () and l = Ilist.create () in
  Ilist.push_back s l 1;
  Ilist.move_front s l 1;
  Ilist.move_back s l 1;
  chk_order "singleton intact" [ 1 ] s l;
  chk_int "front and back" (Ilist.front l) (Ilist.back l)

let walk () =
  let s = store () and l = Ilist.create () in
  List.iter (Ilist.push_back s l) [ 1; 2; 3 ];
  let collect start step =
    let rec go acc i = if i = Ilist.nil then List.rev acc else go (i :: acc) (step s i) in
    go [] start
  in
  chk_bool "walk from back" true
    (collect (Ilist.back l) Ilist.next_toward_front = [ 3; 2; 1 ]);
  chk_bool "walk from front" true
    (collect (Ilist.front l) Ilist.next_toward_back = [ 1; 2; 3 ]);
  (* [iter] may remove the slot it visits. *)
  Ilist.iter (fun i -> if i <> 2 then Ilist.remove s l i) s l;
  chk_order "iter removing visited slots" [ 2 ] s l

let swap_apart () =
  let s = store () and l = Ilist.create () in
  List.iter (Ilist.push_back s l) [ 1; 2; 3; 4 ];
  Ilist.swap s l 1 4;
  chk_order "ends swapped" [ 4; 2; 3; 1 ] s l;
  chk_int "front" 4 (Ilist.front l);
  chk_int "back" 1 (Ilist.back l);
  Ilist.swap s l 3 4;
  chk_order "one apart" [ 3; 2; 4; 1 ] s l;
  Ilist.swap s l 2 2;
  chk_order "self swap no-op" [ 3; 2; 4; 1 ] s l

let swap_adjacent () =
  let s = store () and l = Ilist.create () in
  List.iter (Ilist.push_back s l) [ 1; 2; 3 ];
  Ilist.swap s l 1 2;
  chk_order "front pair" [ 2; 1; 3 ] s l;
  Ilist.swap s l 1 3;
  chk_order "back pair, front slot first" [ 2; 3; 1 ] s l;
  chk_int "back moved" 1 (Ilist.back l);
  Ilist.swap s l 1 3;
  chk_order "back pair, back slot first" [ 2; 1; 3 ] s l;
  chk_int "back" 3 (Ilist.back l)

(* Model-based property: a random op sequence applied to both the list
   and a plain list model must agree. Ops name members by their rank
   among the live slots. *)
type op =
  | Push_front
  | Push_back
  | Remove of int
  | Move_front of int
  | Move_back of int
  | Swap of int * int

let op_gen =
  QCheck2.Gen.(
    let rank = int_range 0 1000 in
    oneof
      [
        return Push_front;
        return Push_back;
        map (fun i -> Remove i) rank;
        map (fun i -> Move_front i) rank;
        map (fun i -> Move_back i) rank;
        map2 (fun i j -> Swap (i, j)) rank rank;
      ])

let model_prop =
  qcheck "model-based ops agree with list model" ~count:300
    QCheck2.Gen.(list_size (int_range 0 120) op_gen)
    (fun ops ->
      let s = Ilist.make_store 4 and l = Ilist.create () in
      let model = ref [] and next = ref 0 in
      let without i = List.filter (( <> ) i) !model in
      let pick r = List.nth (List.sort compare !model) (r mod List.length !model) in
      let fresh () =
        let i = !next in
        incr next;
        Ilist.grow_store s (i + 1);
        i
      in
      List.iter
        (fun op ->
          match op with
          | Push_front ->
            let i = fresh () in
            Ilist.push_front s l i;
            model := i :: !model
          | Push_back ->
            let i = fresh () in
            Ilist.push_back s l i;
            model := !model @ [ i ]
          | _ when !model = [] -> ()
          | Remove r ->
            let i = pick r in
            Ilist.remove s l i;
            model := without i
          | Move_front r ->
            let i = pick r in
            Ilist.move_front s l i;
            model := i :: without i
          | Move_back r ->
            let i = pick r in
            Ilist.move_back s l i;
            model := without i @ [ i ]
          | Swap (r1, r2) ->
            let a = pick r1 and b = pick r2 in
            Ilist.swap s l a b;
            model := List.map (fun i -> if i = a then b else if i = b then a else i) !model)
        ops;
      Ilist.to_list s l = !model
      && Ilist.length l = List.length !model
      && Ilist.front l = (match !model with [] -> Ilist.nil | i :: _ -> i)
      && Ilist.back l = List.fold_left (fun _ i -> i) Ilist.nil !model)

let suites =
  [
    ( "ilist",
      [
        case "basic order" basic_order;
        case "remove middle" remove_middle;
        case "remove ends" remove_ends;
        case "lists share a store" lists_share_a_store;
        case "move front/back" move_front_back;
        case "move singleton" move_singleton;
        case "walking" walk;
        case "swap apart" swap_apart;
        case "swap adjacent" swap_adjacent;
        model_prop;
      ] );
  ]
