(* The content-addressed artifact store (acfc.store): the strict
   acfc-store/1 manifest codec, verify-then-rename ingestion, label
   resolution, the same-digest ingestion race (exactly one writer
   observes Created), corrupted-entry detection and GC of unreferenced
   files. *)

open Tutil
module Store = Acfc_store.Store
module Kind = Acfc_store.Kind
module Manifest = Acfc_store.Manifest

let ok_str = function
  | Ok v -> v
  | Error msg -> Alcotest.fail ("unexpected error: " ^ msg)

(* A fresh store root under the system temp dir, removed afterwards. *)
let with_store f =
  let root = Filename.temp_file "acfc-store" "" in
  Sys.remove root;
  let rec remove_tree path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> remove_tree root)
    (fun () -> f (ok_str (Store.open_ root)))

let err_str = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> msg

let verify_ok s =
  match Acfc_store.Store.verify s with
  | Ok n -> n
  | Error problems -> Alcotest.fail ("verify failed: " ^ String.concat "; " problems)

(* {2 Manifest codec: strict acfc-store/1} *)

let digest_a = String.make 32 'a'

let digest_b = String.make 32 'b'

let test_manifest_roundtrip () =
  let m = Manifest.empty in
  let m, e0 =
    ok_str (Manifest.add m ~kind:Kind.Refstream ~digest:digest_a ~bytes:10
              ~label:(Some "refstream:x"))
  in
  let m, e1 =
    ok_str (Manifest.add m ~kind:Kind.Bench_report ~digest:digest_b ~bytes:20
              ~label:None)
  in
  chk_int "first entry seq" 0 e0.Manifest.seq;
  chk_int "second entry seq" 1 e1.Manifest.seq;
  let m' = ok_str (Manifest.of_string (Manifest.to_string m)) in
  check Alcotest.string "canonical JSON survives a round-trip"
    (Manifest.to_string m) (Manifest.to_string m');
  chk_int "entries survive" 2 (List.length (Manifest.entries m'));
  (match Manifest.resolve m' ~label:"refstream:x" with
  | Some e -> check Alcotest.string "label resolves" digest_a e.Manifest.digest
  | None -> Alcotest.fail "label lost in round-trip")

let test_manifest_idempotent_add () =
  let m = Manifest.empty in
  let m, _ =
    ok_str (Manifest.add m ~kind:Kind.Scenario ~digest:digest_a ~bytes:5 ~label:None)
  in
  (* Re-adding the same (kind, digest) returns the existing entry, and
     a previously unlabelled entry adopts the new label. *)
  let m, e =
    ok_str
      (Manifest.add m ~kind:Kind.Scenario ~digest:digest_a ~bytes:5
         ~label:(Some "scenario:h"))
  in
  chk_int "no duplicate entry" 1 (List.length (Manifest.entries m));
  check Alcotest.(option string) "label adopted" (Some "scenario:h") e.Manifest.label;
  (* Binding the same label to a different digest is refused. *)
  let msg =
    err_str
      (Manifest.add m ~kind:Kind.Scenario ~digest:digest_b ~bytes:5
         ~label:(Some "scenario:h"))
  in
  chk_bool "label clash names the binding" true (contains_sub ~sub:"already bound" msg)

let reject name doc sub =
  let msg = err_str (Manifest.of_string doc) in
  chk_bool
    (Printf.sprintf "%s: error mentions %S (got %S)" name sub msg)
    true (contains_sub ~sub msg)

let test_manifest_rejects () =
  reject "unknown top-level field"
    {|{"schema":"acfc-store/1","next_seq":0,"entries":[],"bogus":1}|}
    {|unknown field "bogus" at $|};
  reject "duplicate field"
    {|{"schema":"acfc-store/1","next_seq":0,"next_seq":1,"entries":[]}|}
    {|duplicate field "next_seq" at $|};
  reject "unknown entry field"
    (Printf.sprintf
       {|{"schema":"acfc-store/1","next_seq":1,"entries":[{"seq":0,"kind":"refstream","digest":"%s","bytes":1,"extra":true}]}|}
       digest_a)
    {|unknown field "extra" at $.entries[0]|};
  reject "wrong schema"
    {|{"schema":"acfc-store/2","next_seq":0,"entries":[]}|}
    "$.schema";
  reject "bad digest"
    {|{"schema":"acfc-store/1","next_seq":1,"entries":[{"seq":0,"kind":"refstream","digest":"nothex","bytes":1}]}|}
    "$.entries[0].digest";
  reject "unknown kind"
    (Printf.sprintf
       {|{"schema":"acfc-store/1","next_seq":1,"entries":[{"seq":0,"kind":"zip","digest":"%s","bytes":1}]}|}
       digest_a)
    "$.entries[0].kind";
  reject "non-increasing seq"
    (Printf.sprintf
       {|{"schema":"acfc-store/1","next_seq":2,"entries":[{"seq":1,"kind":"refstream","digest":"%s","bytes":1},{"seq":1,"kind":"scenario","digest":"%s","bytes":1}]}|}
       digest_a digest_b)
    "strictly increasing";
  reject "seq beyond next_seq"
    (Printf.sprintf
       {|{"schema":"acfc-store/1","next_seq":1,"entries":[{"seq":4,"kind":"refstream","digest":"%s","bytes":1}]}|}
       digest_a)
    "exceeds next_seq"

(* {2 Store operations} *)

let test_add_read_resolve () =
  with_store (fun s ->
      let content = "the artifact bytes\n" in
      let digest = Store.digest_of content in
      (match ok_str (Store.add s ~kind:Kind.Refstream ~label:"refstream:k" content) with
      | Store.Created e -> check Alcotest.string "digest" digest e.Manifest.digest
      | Store.Exists _ -> Alcotest.fail "first add must create");
      (match ok_str (Store.add s ~kind:Kind.Refstream content) with
      | Store.Exists _ -> ()
      | Store.Created _ -> Alcotest.fail "re-add must observe the existing entry");
      chk_bool "contains" true (Store.contains s ~kind:Kind.Refstream ~digest);
      check Alcotest.string "read returns the exact bytes" content
        (ok_str (Store.read s ~kind:Kind.Refstream ~digest));
      (match Store.resolve s ~label:"refstream:k" with
      | Some e -> check Alcotest.string "resolve" digest e.Manifest.digest
      | None -> Alcotest.fail "label did not resolve");
      check
        Alcotest.(list string)
        "available_digests lists the entry" [ digest ]
        (Store.available_digests s Kind.Refstream);
      chk_int "verify passes" 1 (verify_ok s))

let test_expect_mismatch () =
  with_store (fun s ->
      let msg =
        err_str (Store.add s ~kind:Kind.Scenario ~expect:digest_a "not those bytes")
      in
      chk_bool "mismatch names both digests" true (contains_sub ~sub:"expected" msg);
      (* Nothing may have been written. *)
      check Alcotest.(list string) "store untouched" []
        (Store.available_digests s Kind.Scenario);
      chk_int "manifest untouched" 0 (List.length (Store.entries s)))

(* Two domains race one handle on the same content: link(2) decides the
   winner, so exactly one observes Created and the other Exists, and the
   manifest ends up with a single entry either way. *)
let test_same_digest_race_domains () =
  with_store (fun s ->
      let content = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
      let barrier = Atomic.make 0 in
      let contender () =
        Atomic.incr barrier;
        while Atomic.get barrier < 2 do Domain.cpu_relax () done;
        Store.add s ~kind:Kind.Wirgen_corpus content
      in
      let d = Domain.spawn contender in
      let a = contender () in
      let b = Domain.join d in
      let created, exists =
        List.fold_left
          (fun (c, e) -> function
            | Ok (Store.Created _) -> (c + 1, e)
            | Ok (Store.Exists _) -> (c, e + 1)
            | Error msg -> Alcotest.fail ("racing add failed: " ^ msg))
          (0, 0) [ a; b ]
      in
      chk_int "exactly one Created" 1 created;
      chk_int "the loser observes Exists" 1 exists;
      chk_int "one manifest entry" 1 (List.length (Store.entries s));
      chk_int "verify passes after the race" 1 (verify_ok s))

(* Two processes race separate handles on one root: the cross-process
   lockf serialises the manifest and link(2) the payload. fork(2) is
   off-limits once other tests have spawned domains, so the children
   are fresh re-executions of this very test binary — [main.ml]
   diverts them into {!race_child} before Alcotest starts. *)
let race_env = "ACFC_STORE_RACE_ROOT"

let race_content = "cross-process payload"

let race_child root =
  match Store.open_ root with
  | Error _ -> exit 3
  | Ok s ->
    (match Store.add s ~kind:Kind.Bench_report race_content with
    | Ok (Store.Created _) -> exit 0
    | Ok (Store.Exists _) -> exit 1
    | Error _ -> exit 3)

let test_same_digest_race_processes () =
  with_store (fun s ->
      let spawn () =
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          (Array.append (Unix.environment ())
             [| race_env ^ "=" ^ Store.root s |])
          Unix.stdin Unix.stdout Unix.stderr
      in
      let p1 = spawn () in
      let p2 = spawn () in
      let status pid =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED n -> n
        | _ -> Alcotest.fail "child did not exit normally"
      in
      let outcomes = List.sort compare [ status p1; status p2 ] in
      check Alcotest.(list int) "one Created, one Exists" [ 0; 1 ] outcomes;
      chk_int "one manifest entry" 1 (List.length (Store.entries s));
      chk_int "verify passes" 1 (verify_ok s))

let test_corruption_detected () =
  with_store (fun s ->
      let content = "pristine bytes" in
      let digest = Store.digest_of content in
      ignore (ok_str (Store.add s ~kind:Kind.Wir_program content));
      (* Flip the stored bytes behind the store's back. *)
      let p = Option.get (Store.lookup s ~kind:Kind.Wir_program ~digest) in
      let oc = open_out_bin p in
      output_string oc "tampered bytes";
      close_out oc;
      (match Store.read s ~kind:Kind.Wir_program ~digest with
      | Ok _ -> Alcotest.fail "read must refuse corrupted bytes"
      | Error msg ->
        chk_bool "read names the corruption" true (contains_sub ~sub:"corrupted" msg));
      match Store.verify s with
      | Ok _ -> Alcotest.fail "verify must flag the entry"
      | Error problems ->
        chk_int "one problem" 1 (List.length problems);
        chk_bool "problem names the digest" true
          (contains_sub ~sub:digest (List.hd problems)))

let test_gc_removes_unreferenced () =
  with_store (fun s ->
      let content = "kept" in
      let digest = Store.digest_of content in
      ignore (ok_str (Store.add s ~kind:Kind.Scenario content));
      (* An unindexed file in a kind dir and a staging leftover. *)
      let stray = Filename.concat (Filename.concat (Store.root s) "scenario") digest_b in
      let leftover = Filename.concat (Filename.concat (Store.root s) "tmp") "x.part" in
      List.iter
        (fun p ->
          let oc = open_out p in
          output_string oc "junk";
          close_out oc)
        [ stray; leftover ];
      let removed = List.sort String.compare (Store.gc s) in
      check Alcotest.(list string) "gc removes exactly the strays"
        (List.sort String.compare [ stray; leftover ])
        removed;
      chk_bool "referenced entry survives" true
        (Store.contains s ~kind:Kind.Scenario ~digest);
      chk_int "verify passes after gc" 1 (verify_ok s))

let suites =
  [
    ( "store.manifest",
      [
        case "round-trip" test_manifest_roundtrip;
        case "idempotent add, label adoption and clash" test_manifest_idempotent_add;
        case "strict rejections with $.path" test_manifest_rejects;
      ] );
    ( "store",
      [
        case "add/read/resolve/verify" test_add_read_resolve;
        case "expect mismatch writes nothing" test_expect_mismatch;
        case "same-digest race, two domains" test_same_digest_race_domains;
        case "same-digest race, two processes" test_same_digest_race_processes;
        case "corrupted entry detected" test_corruption_detected;
        case "gc removes only unreferenced files" test_gc_removes_unreferenced;
      ] );
  ]
