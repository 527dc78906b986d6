open Si_treebank
open Si_core

let qcheck = QCheck_alcotest.to_alcotest

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let save_exn b p = ok_exn "save" (Builder.save b p)
let load_exn p = ok_exn "load" (Builder.load p)

let interval_gen =
  QCheck.Gen.(
    map3
      (fun pre post level -> { Coding.pre; post; level })
      (int_bound 10_000) (int_bound 10_000) (int_bound 30))

let posting_gen =
  let open QCheck.Gen in
  let tids = map (fun l -> List.sort_uniq compare l) (list_size (1 -- 20) (int_bound 5000)) in
  oneof
    [
      map (fun l -> Coding.Filter_p (Array.of_list l)) tids;
      ( pair tids (1 -- 4) >>= fun (ts, k) ->
        map
          (fun ivss ->
            Coding.Interval_p
              (Array.of_list (List.combine ts (List.map Array.of_list ivss))))
          (list_repeat (List.length ts) (list_repeat k interval_gen)) );
      ( tids >>= fun ts ->
        map
          (fun ivs -> Coding.Root_p (Array.of_list (List.combine ts ivs)))
          (list_repeat (List.length ts) interval_gen) );
    ]

let key_size_of = function
  | Coding.Interval_p rows when Array.length rows > 0 ->
      Array.length (snd rows.(0))
  | _ -> 1

let scheme_of = function
  | Coding.Filter_p _ -> Coding.Filter
  | Coding.Interval_p _ -> Coding.Interval
  | Coding.Root_p _ -> Coding.Root_split

let prop_posting_codec =
  QCheck.Test.make ~name:"posting codec roundtrip" ~count:300
    (QCheck.make posting_gen) (fun p ->
      let buf = Buffer.create 64 in
      Coding.write buf p;
      let s = Buffer.contents buf in
      let p', off = Coding.read (scheme_of p) ~key_size:(key_size_of p) (Coding.str s) 0 in
      p = p' && off = String.length s)

let corpus n seed = Si_grammar.Generator.corpus ~seed ~n ()
let docs trees = Array.of_list (List.map Annotated.of_tree trees)

(* SIDX2 packing relies on corpus invariants (post = pre + size - 1 - level,
   instance nodes descend from the instance root), so its roundtrip is
   checked on postings from real builds rather than free-form generators. *)
let prop_pack_roundtrip =
  QCheck.Test.make ~name:"SIDX2 pack/unpack roundtrip (built postings)"
    ~count:12
    QCheck.(pair (int_range 1 3) small_nat)
    (fun (mss, seed) ->
      List.iter
        (fun scheme ->
          let b = Builder.build ~scheme ~mss (docs (corpus 30 (seed + 3))) in
          Builder.iter b (fun key p ->
              let buf = Buffer.create 64 in
              Coding.pack buf p;
              let s = Buffer.contents buf in
              let p', off =
                Coding.unpack scheme ~key_size:(Si_subtree.Canonical.key_size key) (Coding.str s) 0
              in
              if p <> p' || off <> String.length s then
                QCheck.Test.fail_reportf "pack/unpack mismatch (%s, mss=%d)"
                  (Coding.scheme_to_string scheme) mss))
        [ Coding.Filter; Coding.Interval; Coding.Root_split ];
      true)

let test_builder_invariants () =
  let d = docs (corpus 60 11) in
  let nodes = Array.fold_left (fun a t -> a + Annotated.size t) 0 d in
  List.iter
    (fun scheme ->
      let b = Builder.build ~scheme ~mss:2 d in
      Alcotest.(check int) "trees" 60 b.Builder.stats.Builder.trees;
      Alcotest.(check int) "nodes" nodes b.Builder.stats.Builder.nodes;
      Alcotest.(check int) "keys = table size" (Builder.n_keys b)
        b.Builder.stats.Builder.keys;
      (* postings sorted and (where promised) unique *)
      Builder.iter b (fun key p ->
          let sorted_unique l = List.sort_uniq compare l = l in
          ignore key;
          match p with
          | Coding.Filter_p tids ->
              Alcotest.(check bool) "filter sorted unique" true
                (sorted_unique (Array.to_list tids))
          | Coding.Root_p rows ->
              Alcotest.(check bool) "root rows sorted unique" true
                (sorted_unique
                   (Array.to_list
                      (Array.map (fun (t, iv) -> (t, iv.Coding.pre)) rows)))
          | Coding.Interval_p rows ->
              Alcotest.(check bool) "interval tids sorted" true
                (let ts = Array.to_list (Array.map fst rows) in
                 List.sort compare ts = ts)))
    [ Coding.Filter; Coding.Interval; Coding.Root_split ]

let test_mss1_codings_align () =
  (* at mss=1 every instance root is the (single) key node, so interval and
     root-split carry identical entry counts; filter collapses to tids *)
  let d = docs (corpus 40 13) in
  let stat scheme =
    (Builder.build ~scheme ~mss:1 d).Builder.stats.Builder.postings
  in
  let nodes = Array.fold_left (fun a t -> a + Annotated.size t) 0 d in
  Alcotest.(check int) "interval postings = corpus nodes" nodes
    (stat Coding.Interval);
  Alcotest.(check int) "root-split = interval at mss=1" (stat Coding.Interval)
    (stat Coding.Root_split);
  Alcotest.(check bool) "filter smaller" true (stat Coding.Filter < nodes)

let test_keys_grow_with_mss () =
  let d = docs (corpus 50 17) in
  let keys mss =
    (Builder.build ~scheme:Coding.Filter ~mss d).Builder.stats.Builder.keys
  in
  let k1 = keys 1 and k2 = keys 2 and k3 = keys 3 in
  Alcotest.(check bool) "k1 < k2 < k3" true (k1 < k2 && k2 < k3)

let test_builder_save_load () =
  let d = docs (corpus 30 19) in
  let path = Filename.temp_file "si_test" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun scheme ->
          let b = Builder.build ~scheme ~mss:3 d in
          save_exn b path;
          let b' = load_exn path in
          Alcotest.(check bool) "scheme" true (b'.Builder.scheme = scheme);
          Alcotest.(check int) "mss" 3 b'.Builder.mss;
          Alcotest.(check int) "keys" b.Builder.stats.Builder.keys
            b'.Builder.stats.Builder.keys;
          Alcotest.(check int) "postings stat survives lazy load"
            b.Builder.stats.Builder.postings b'.Builder.stats.Builder.postings;
          Alcotest.(check int) "table size" (Builder.n_keys b) (Builder.n_keys b');
          Builder.iter b (fun key p ->
              match Builder.find_exn b' key with
              | Some p' -> Alcotest.(check bool) "posting equal" true (p = p')
              | None -> Alcotest.fail "key lost in save/load"))
        [ Coding.Filter; Coding.Interval; Coding.Root_split ])

(* ---- the differential heart: every coding's evaluator = the oracle ---- *)

let queries =
  List.map Si_query.Parser.parse_exn
    [
      "S(NP)(VP)";
      "S(NP(DT)(NN))(VP)";
      "NP(DT)(NN)";
      "NP(NN)(NN)";
      "S(//NN)";
      "S(NP)(VP(//NP(NN)))";
      "S(//NP)(//NP)";
      "VP(VBZ)(NP(DT)(NN))";
      "NP(NP(//NN))(PP)";
      "S(//PP(IN)(NP))";
    ]

let check_differential ~seed ~n ~mss =
  let d = docs (corpus n seed) in
  let oracle = Hashtbl.create 16 in
  List.iter
    (fun q -> Hashtbl.replace oracle q (Si_query.Matcher.corpus_roots d q))
    queries;
  List.iter
    (fun scheme ->
      let index = Builder.build ~scheme ~mss d in
      List.iter
        (fun q ->
          let got = Eval.run_exn ~index ~corpus:(Corpus.of_array d) q in
          let want = Hashtbl.find oracle q in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s/%s mss=%d"
               (Coding.scheme_to_string scheme)
               (Si_query.Ast.to_string q) mss)
            want got)
        queries)
    [ Coding.Filter; Coding.Interval; Coding.Root_split ]

let test_differential_fixed () =
  check_differential ~seed:42 ~n:120 ~mss:3;
  check_differential ~seed:7 ~n:120 ~mss:2

let prop_differential =
  (* random corpora x random mss, same query battery *)
  QCheck.Test.make ~name:"codings match oracle (random corpora)" ~count:8
    QCheck.(pair (int_range 1 4) small_nat)
    (fun (mss, seed) ->
      check_differential ~seed:(seed + 1) ~n:60 ~mss;
      true)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp f =
  let path = Filename.temp_file "si_test" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* parallel build differential: the saved index must be byte-identical *)
let prop_parallel_byte_identical =
  QCheck.Test.make ~name:"parallel build (2/4 domains) byte-identical to sequential"
    ~count:6
    QCheck.(pair (int_range 1 3) small_nat)
    (fun (mss, seed) ->
      List.iter
        (fun scheme ->
          let d = docs (corpus 50 (seed + 101)) in
          let reference =
            with_temp (fun p ->
                save_exn (Builder.build ~domains:1 ~scheme ~mss d) p;
                read_file p)
          in
          let same how b =
            let bytes = with_temp (fun p -> save_exn b p; read_file p) in
            if not (String.equal reference bytes) then
              QCheck.Test.fail_reportf
                "%s build differs from sequential (%s, mss=%d, seed=%d)" how
                (Coding.scheme_to_string scheme) mss seed
          in
          List.iter
            (fun domains ->
              same (Printf.sprintf "%d-domain" domains)
                (Builder.build ~domains ~scheme ~mss d))
            [ 2; 4 ];
          (* the insert path: a build of the first trees grown by two
             appends (the second one concatenating onto unpacked slots) *)
          same "appended"
            (Builder.append
               (Builder.append
                  (Builder.build ~scheme ~mss (Array.sub d 0 20))
                  (Array.sub d 20 1))
               (Array.sub d 21 29)))
        [ Coding.Filter; Coding.Interval; Coding.Root_split ];
      true)

(* SIDX2 differential: a saved-and-lazily-reloaded index answers every
   query exactly like in-memory evaluation and the brute-force oracle *)
let prop_sidx2_differential =
  QCheck.Test.make ~name:"SIDX2 lazy reload matches eval and oracle" ~count:5
    QCheck.(pair (int_range 1 4) small_nat)
    (fun (mss, seed) ->
      let d = docs (corpus 60 (seed + 211)) in
      List.iter
        (fun scheme ->
          let b = Builder.build ~scheme ~mss d in
          let b' = with_temp (fun p -> save_exn b p; load_exn p) in
          List.iter
            (fun q ->
              let mem = Eval.run_exn ~index:b ~corpus:(Corpus.of_array d) q in
              let lazy_ = Eval.run_exn ~index:b' ~corpus:(Corpus.of_array d) q in
              let want = Si_query.Matcher.corpus_roots d q in
              if mem <> lazy_ || lazy_ <> want then
                QCheck.Test.fail_reportf "SIDX2 mismatch on %s (%s, mss=%d)"
                  (Si_query.Ast.to_string q)
                  (Coding.scheme_to_string scheme)
                  mss)
            queries)
        [ Coding.Filter; Coding.Interval; Coding.Root_split ];
      true)

let test_sidx1_compat () =
  (* a legacy SIDX1 file loads into the same index as the SIDX2 file *)
  let d = docs (corpus 40 37) in
  List.iter
    (fun scheme ->
      let b = Builder.build ~scheme ~mss:3 d in
      let via_v1 =
        with_temp (fun p -> ok_exn "save_v1" (Builder.save_v1 b p); load_exn p)
      in
      Alcotest.(check int) "keys" (Builder.n_keys b) (Builder.n_keys via_v1);
      Builder.iter b (fun key p ->
          match Builder.find_exn via_v1 key with
          | Some p' -> Alcotest.(check bool) "posting equal" true (p = p')
          | None -> Alcotest.fail "key lost in SIDX1 roundtrip"))
    [ Coding.Filter; Coding.Interval; Coding.Root_split ]

let test_sidx2_smaller_than_sidx1 () =
  let d = docs (corpus 200 41) in
  List.iter
    (fun scheme ->
      let b = Builder.build ~scheme ~mss:3 d in
      let size save =
        with_temp (fun p -> ok_exn "save" (save b p); (Unix.stat p).Unix.st_size)
      in
      let v2 = size Builder.save and v1 = size Builder.save_v1 in
      Alcotest.(check bool)
        (Printf.sprintf "SIDX2 (%d) < SIDX1 (%d) for %s" v2 v1
           (Coding.scheme_to_string scheme))
        true (v2 < v1))
    [ Coding.Filter; Coding.Interval; Coding.Root_split ]

(* ---- error taxonomy: one regression per Si_error variant -------------- *)

let write_bytes p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

let expect_corrupt what p =
  match Builder.load p with
  | Error (Si_error.Corrupt _) -> ()
  | Error e -> Alcotest.failf "%s: wrong error: %s" what (Si_error.to_string e)
  | Ok _ -> Alcotest.failf "%s: corrupt file accepted" what

let test_load_corrupt_taxonomy () =
  let b = Builder.build ~scheme:Coding.Root_split ~mss:2 (docs (corpus 20 43)) in
  with_temp (fun p ->
      (* bad magic *)
      write_bytes p "NOTIDX\njunk";
      expect_corrupt "bad magic" p;
      (* empty file — distinguished message *)
      write_bytes p "";
      (match Builder.load p with
      | Error (Si_error.Corrupt { what; _ }) ->
          Alcotest.(check string) "empty file message" "empty file" what
      | _ -> Alcotest.fail "empty file accepted");
      (* proper prefix of the magic = truncated header, not bad magic *)
      write_bytes p "SIDX";
      (match Builder.load p with
      | Error (Si_error.Corrupt { what; _ }) ->
          Alcotest.(check bool) "truncated-header message" true
            (String.length what >= 9 && String.sub what 0 9 = "truncated")
      | _ -> Alcotest.fail "truncated header accepted");
      (* real magic but truncated body *)
      save_exn b p;
      let full = read_file p in
      write_bytes p (String.sub full 0 (String.length full / 2));
      expect_corrupt "truncated SIDX2" p;
      (* missing footer (pre-checksum SIDX2 shape) *)
      write_bytes p (String.sub full 0 (String.length full - 32));
      expect_corrupt "missing footer" p;
      (* single flipped bit in the postings region *)
      let n = String.length full in
      let flipped = Bytes.of_string full in
      Bytes.set flipped (n - 40) (Char.chr (Char.code full.[n - 40] lxor 0x01));
      write_bytes p (Bytes.to_string flipped);
      expect_corrupt "bit flip" p;
      (* intact file still loads after all that *)
      write_bytes p full;
      ignore (load_exn p))

let test_error_io () =
  match Builder.load "/nonexistent/si_test.idx" with
  | Error (Si_error.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
  | Ok _ -> Alcotest.fail "nonexistent file loaded"

let test_error_bad_query () =
  let si = Si.build ~scheme:Coding.Filter ~mss:2 ~trees:(corpus 5 47) () in
  match Si.query si "S((NP)" with
  | Error (Si_error.Bad_query _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
  | Ok _ -> Alcotest.fail "syntax error accepted"

let test_error_schema_mismatch () =
  (* cross the .meta of one scheme with the .idx of another *)
  let trees = corpus 20 53 in
  let dir = Filename.temp_file "si_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let pf = Filename.concat dir "f" and pr = Filename.concat dir "r" in
      ignore (Si.build ~scheme:Coding.Filter ~mss:2 ~trees ~prefix:pf ());
      ignore (Si.build ~scheme:Coding.Root_split ~mss:2 ~trees ~prefix:pr ());
      let idx = read_file (pf ^ ".idx") in
      write_bytes (pr ^ ".idx") idx;
      match Si.open_ pr with
      | Error (Si_error.Schema_mismatch _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "mismatched .meta accepted")

let test_atomic_save () =
  (* a failed save must leave the existing file untouched, and no .tmp *)
  let b = Builder.build ~scheme:Coding.Interval ~mss:2 (docs (corpus 15 59)) in
  with_temp (fun p ->
      save_exn b p;
      let before = read_file p in
      let bad = Filename.concat p "sub.idx" (* p is a file: open must fail *) in
      (match Builder.save b bad with
      | Error (Si_error.Io _) -> ()
      | Ok () -> Alcotest.fail "save into a file-as-directory succeeded"
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e));
      Alcotest.(check string) "original intact" before (read_file p);
      Alcotest.(check bool) "no tmp litter" false (Sys.file_exists (p ^ ".tmp")))

(* ---- pack-time validation (adversarial posting shapes) ---------------- *)

let expect_pack_invalid what p =
  let buf = Buffer.create 16 in
  match Coding.pack buf p with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.failf "%s: packed without complaint" what

let test_pack_validation () =
  let iv pre level size = { Coding.pre; post = pre + size - 1 - level; level } in
  (* well-formed shapes pack fine *)
  let buf = Buffer.create 16 in
  Coding.pack buf (Coding.Filter_p [| 0; 1; 5 |]);
  Coding.pack buf (Coding.Root_p [| (0, iv 0 0 3); (0, iv 2 1 1); (4, iv 1 1 2) |]);
  Coding.pack buf
    (Coding.Interval_p [| (1, [| iv 3 1 2; iv 4 2 1 |]) |]);
  (* adversarial shapes are rejected, not silently mis-encoded *)
  expect_pack_invalid "unsorted filter tids" (Coding.Filter_p [| 3; 1 |]);
  expect_pack_invalid "duplicate filter tid" (Coding.Filter_p [| 2; 2 |]);
  expect_pack_invalid "negative tid" (Coding.Filter_p [| -1; 2 |]);
  expect_pack_invalid "unsorted root tids"
    (Coding.Root_p [| (5, iv 0 0 1); (1, iv 0 0 1) |]);
  expect_pack_invalid "root pre decreasing within tid"
    (Coding.Root_p [| (0, iv 4 1 1); (0, iv 2 1 1) |]);
  expect_pack_invalid "interval violating post identity"
    (Coding.Root_p [| (0, { Coding.pre = 5; post = 1; level = 2 }) |]);
  expect_pack_invalid "empty interval instance" (Coding.Interval_p [| (0, [||]) |]);
  expect_pack_invalid "instance node above its root"
    (Coding.Interval_p [| (0, [| iv 5 2 2; iv 3 1 1 |]) |])

(* unpack on random garbage: returns or raises Malformed — never anything
   else, never a crash *)
let prop_unpack_garbage =
  QCheck.Test.make ~name:"unpack(garbage) = posting or Malformed" ~count:2000
    QCheck.(
      triple (int_range 0 2) (int_range 1 4)
        (string_gen_of_size Gen.(0 -- 40) Gen.char))
    (fun (si, key_size, s) ->
      let scheme =
        match si with 0 -> Coding.Filter | 1 -> Coding.Interval | _ -> Coding.Root_split
      in
      (match Coding.unpack scheme ~key_size (Coding.str s) 0 with
      | _ -> ()
      | exception Coding.Malformed _ -> ());
      (match Coding.read scheme ~key_size (Coding.str s) 0 with
      | _ -> ()
      | exception Coding.Malformed _ -> ());
      true)

(* pack/unpack roundtrip on adversarial-but-legal shapes the generator-based
   corpus tests never produce: empty postings, max-mss keys, duplicate roots *)
let prop_pack_roundtrip_adversarial =
  let iv pre level size = { Coding.pre; post = pre + size - 1 - level; level } in
  let legal_gen =
    let open QCheck.Gen in
    let tids n = map (fun l -> List.sort_uniq compare l) (list_size (0 -- n) (int_bound 50)) in
    oneof
      [
        (* filter, possibly empty *)
        map (fun l -> Coding.Filter_p (Array.of_list l)) (tids 8);
        (* root-split with duplicate tids, distinct non-decreasing pres *)
        ( tids 5 >>= fun ts ->
          map
            (fun dups ->
              let rows =
                List.map2
                  (fun t d -> List.init d (fun i -> (t, iv (2 * i) (min i 3) (1 + (i mod 3)))))
                  ts dups
                |> List.concat
              in
              Coding.Root_p (Array.of_list rows))
            (list_repeat (List.length ts) (1 -- 3)) );
        (* interval with the same root appearing under several tids *)
        ( pair (tids 5) (1 -- 4) >>= fun (ts, k) ->
          return
            (Coding.Interval_p
               (Array.of_list
                  (List.map
                     (fun t ->
                       (t, Array.init k (fun i ->
                                if i = 0 then iv 1 1 k else iv (1 + i) 2 1)))
                     ts))) );
      ]
  in
  QCheck.Test.make ~name:"pack/unpack roundtrip (adversarial legal shapes)"
    ~count:500 (QCheck.make legal_gen) (fun p ->
      let buf = Buffer.create 64 in
      Coding.pack buf p;
      let s = Buffer.contents buf in
      let key_size = key_size_of p in
      let p', off = Coding.unpack (scheme_of p) ~key_size (Coding.str s) 0 in
      p = p' && off = String.length s)

let test_si_roundtrip () =
  let trees = corpus 80 23 in
  let dir = Filename.temp_file "si_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      List.iter
        (fun scheme ->
          let prefix =
            Filename.concat dir ("ix-" ^ Coding.scheme_to_string scheme)
          in
          let si = Si.build ~scheme ~mss:3 ~trees ~prefix () in
          let si' = ok_exn "open_" (Si.open_ prefix) in
          Alcotest.(check bool) "scheme" true (Si.scheme si' = scheme);
          Alcotest.(check int) "mss" 3 (Si.mss si');
          Alcotest.(check int) "trees stat" 80
            (Si.stats si').Builder.trees;
          List.iter
            (fun q ->
              Alcotest.(check (list (pair int int)))
                ("reopened: " ^ Si_query.Ast.to_string q)
                (ok_exn "query_ast" (Si.query_ast si q))
                (ok_exn "query_ast" (Si.query_ast si' q));
              Alcotest.(check (list (pair int int)))
                ("vs oracle: " ^ Si_query.Ast.to_string q)
                (Si.oracle si' q)
                (ok_exn "query_ast" (Si.query_ast si' q)))
            queries;
          Alcotest.(check bool) "sentence roundtrip" true
            (Tree.equal (Si.sentence si 5) (Si.sentence si' 5)))
        [ Coding.Filter; Coding.Interval; Coding.Root_split ])

let test_unknown_label () =
  let si = Si.build ~scheme:Coding.Root_split ~mss:2 ~trees:(corpus 20 29) () in
  match Si.query si "ZZZ(QQQ)" with
  | Ok [] -> ()
  | Ok l -> Alcotest.failf "expected no matches, got %d" (List.length l)
  | Error e ->
      Alcotest.failf "expected empty result, got error: %s" (Si_error.to_string e)

let test_query_syntax_error () =
  let si = Si.build ~scheme:Coding.Filter ~mss:2 ~trees:(corpus 5 31) () in
  Alcotest.(check bool) "syntax error surfaces" true
    (Result.is_error (Si.query si "S((NP)"))

let suite =
  [
    qcheck prop_posting_codec;
    qcheck prop_pack_roundtrip;
    Alcotest.test_case "builder invariants" `Quick test_builder_invariants;
    Alcotest.test_case "mss=1 coding alignment" `Quick test_mss1_codings_align;
    Alcotest.test_case "keys grow with mss" `Quick test_keys_grow_with_mss;
    Alcotest.test_case "builder save/load" `Quick test_builder_save_load;
    qcheck prop_parallel_byte_identical;
    qcheck prop_sidx2_differential;
    Alcotest.test_case "SIDX1 compat load" `Quick test_sidx1_compat;
    Alcotest.test_case "SIDX2 smaller than SIDX1" `Quick test_sidx2_smaller_than_sidx1;
    Alcotest.test_case "corrupt-load taxonomy" `Quick test_load_corrupt_taxonomy;
    Alcotest.test_case "Si_error.Io on missing file" `Quick test_error_io;
    Alcotest.test_case "Si_error.Bad_query on syntax error" `Quick test_error_bad_query;
    Alcotest.test_case "Si_error.Schema_mismatch on crossed .meta" `Quick
      test_error_schema_mismatch;
    Alcotest.test_case "atomic save leaves original intact" `Quick test_atomic_save;
    Alcotest.test_case "pack-time validation" `Quick test_pack_validation;
    qcheck prop_unpack_garbage;
    qcheck prop_pack_roundtrip_adversarial;
    Alcotest.test_case "differential vs oracle (fixed)" `Slow test_differential_fixed;
    qcheck prop_differential;
    Alcotest.test_case "Si persistence roundtrip" `Slow test_si_roundtrip;
    Alcotest.test_case "unknown label" `Quick test_unknown_label;
    Alcotest.test_case "query syntax error" `Quick test_query_syntax_error;
  ]
