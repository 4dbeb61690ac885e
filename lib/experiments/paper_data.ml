let cache_sizes_mb = [ 6.4; 8.0; 12.0; 16.0 ]

let fig5_combos =
  [
    [ "cs2"; "gli" ];
    [ "cs3"; "ldk" ];
    [ "gli"; "sort" ];
    [ "din"; "sort" ];
    [ "sort"; "ldk" ];
    [ "pjn"; "ldk" ];
    [ "din"; "cs2"; "ldk" ];
    [ "cs1"; "gli"; "ldk" ];
    [ "din"; "cs3"; "gli"; "ldk" ];
  ]

let fig6_combos =
  [
    [ "cs2"; "gli" ];
    [ "cs3"; "ldk" ];
    [ "din"; "cs2"; "ldk" ];
    [ "cs1"; "gli"; "ldk" ];
    [ "din"; "cs3"; "gli"; "ldk" ];
  ]

let combo_name names = String.concat "+" names

(* Table 5: elapsed time in seconds, (app, original, LRU-SP). *)
let table5 =
  [
    ("din", [| 117.; 99.; 99.; 99. |], [| 106.; 99.; 100.; 100. |]);
    ("cs1", [| 62.; 61.; 28.; 28. |], [| 38.; 33.; 27.; 28. |]);
    ("cs3", [| 96.; 96.; 57.; 47. |], [| 79.; 71.; 50.; 48. |]);
    ("cs2", [| 191.; 190.; 188.; 184. |], [| 172.; 168.; 152.; 128. |]);
    ("gli", [| 126.; 123.; 113.; 97. |], [| 114.; 108.; 92.; 84. |]);
    ("ldk", [| 66.; 65.; 65.; 65. |], [| 66.; 64.; 60.; 56. |]);
    ("pjn", [| 225.; 220.; 202.; 187. |], [| 199.; 192.; 185.; 174. |]);
    ("sort", [| 339.; 338.; 339.; 336. |], [| 294.; 281.; 256.; 243. |]);
  ]

(* Table 6: number of block I/Os. *)
let table6 =
  [
    ("din", [| 8888.; 998.; 997.; 998. |], [| 2573.; 1003.; 997.; 997. |]);
    ("cs1", [| 8634.; 8630.; 1141.; 1141. |], [| 3066.; 1628.; 1141.; 1141. |]);
    ("cs3", [| 6575.; 6571.; 2815.; 1728. |], [| 4394.; 3548.; 1903.; 1733. |]);
    ("cs2", [| 11785.; 11762.; 11717.; 11647. |], [| 9680.; 9091.; 7650.; 5597. |]);
    ("gli", [| 10435.; 10321.; 9720.; 7508. |], [| 8870.; 8308.; 7120.; 6275. |]);
    ("ldk", [| 5395.; 5389.; 5397.; 5390. |], [| 5011.; 4760.; 4385.; 3898. |]);
    ("pjn", [| 7166.; 6738.; 5897.; 5257. |], [| 5800.; 5635.; 5334.; 4993. |]);
    ("sort", [| 14670.; 14671.; 14639.; 14520. |], [| 12462.; 11884.; 10400.; 9460. |]);
  ]

let size_index mb =
  let rec go i = function
    | [] -> None
    | s :: rest -> if Float.abs (s -. mb) < 0.01 then Some i else go (i + 1) rest
  in
  go 0 cache_sizes_mb

let lookup table app ~mb =
  Option.bind (size_index mb) (fun i ->
      Option.map
        (fun (_, orig, sp) -> (orig.(i), sp.(i)))
        (List.find_opt (fun (name, _, _) -> name = app) table))

let lookup_elapsed = lookup table5

let lookup_ios = lookup table6

(* Table 1: ReadN with a background Read300; columns 390/400/490/500. *)
let table1_elapsed =
  [
    ("Oblivious", [| 53.; 58.; 59.; 72. |]);
    ("Unprotected", [| 73.; 89.; 76.; 122. |]);
    ("Protected", [| 75.; 75.; 72.; 91. |]);
  ]

let table1_ios =
  [
    ("Oblivious", [| 1172.; 1181.; 1176.; 1481. |]);
    ("Unprotected", [| 1300.; 1538.; 1465.; 2294. |]);
    ("Protected", [| 1170.; 1170.; 1199.; 1580. |]);
  ]

(* Table 2: smart apps vs an oblivious/foolish Read300. *)
let table2_elapsed =
  [ ("Oblivious", [| 155.; 225.; 156.; 112. |]); ("Foolish", [| 202.; 339.; 261.; 208. |]) ]

let table2_ios =
  [
    ("Oblivious", [| 3067.; 9760.; 9086.; 5201. |]);
    ("Foolish", [| 3495.; 10542.; 9759.; 5374. |]);
  ]

(* Tables 3 and 4: Read300's elapsed with oblivious vs smart partners. *)
let table3_read300_elapsed =
  [ ("Oblivious", [| 87.; 88.; 60.; 78. |]); ("Smart", [| 67.; 83.; 64.; 76. |]) ]

let table4_read300_elapsed =
  [ ("Oblivious", [| 20.; 18.; 19.; 17. |]); ("Smart", [| 20.; 17.5; 18.; 17. |]) ]
