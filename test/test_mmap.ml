(* The SIDX4 mmap-resident backend and its corpus store.

   The contract under test: an SIDX4 prefix answers *byte-identically* to
   the in-memory index it was built from (and to the brute-force oracle), the
   corpus store reconstructs exactly the annotation a Penn re-parse would
   build, open-time work is O(1) with region CRCs verifying lazily, and a
   damaged file surfaces as [Corrupt] — never a crash and never a silently
   wrong answer. *)

open Si_core

let qcheck = QCheck_alcotest.to_alcotest

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let corpus n seed = Si_grammar.Generator.corpus ~seed ~n ()
let schemes = [ Coding.Filter; Coding.Interval; Coding.Root_split ]

let queries =
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

(* a scratch directory for prefix file sets *)
let with_dir f =
  let dir = Filename.temp_file "si_mmap" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* the in-memory handle of a build, and the prefix it persisted *)
let build_both dir ~scheme ~mss ~trees =
  let p4 = Filename.concat dir "ix4" in
  let mem = Si.build ~scheme ~mss ~trees ~prefix:p4 () in
  (mem, p4)

(* ---- differential: SIDX4 = in-memory = oracle --------------------------- *)

let check_differential ~seed ~n ~mss =
  with_dir @@ fun dir ->
  let trees = corpus n seed in
  List.iter
    (fun scheme ->
      let mem, p4 = build_both dir ~scheme ~mss ~trees in
      let s4 = ok_exn "open sidx4" (Si.open_ p4) in
      Alcotest.(check bool) "in-memory backend" false (Builder.is_mapped (Si.index mem));
      Alcotest.(check bool) "sidx4 backend" true (Builder.is_mapped (Si.index s4));
      List.iter
        (fun qstr ->
          let want = ok_exn ("in-memory " ^ qstr) (Si.query mem qstr) in
          let got = ok_exn ("sidx4 " ^ qstr) (Si.query s4 qstr) in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s/%s mss=%d sidx4 = in-memory"
               (Coding.scheme_to_string scheme) qstr mss)
            want got;
          let oracle = Si.oracle s4 (Si_query.Parser.parse_exn qstr) in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s/%s mss=%d sidx4 = oracle"
               (Coding.scheme_to_string scheme) qstr mss)
            oracle got)
        queries;
      (* sentence output: the store reconstruction = the built corpus *)
      for tid = 0 to min 9 (List.length trees - 1) do
        Alcotest.(check string) "sentence"
          (Si_treebank.Tree.to_string (Si.sentence mem tid))
          (Si_treebank.Tree.to_string (Si.sentence s4 tid))
      done)
    schemes

let test_differential_fixed () =
  check_differential ~seed:42 ~n:120 ~mss:3;
  check_differential ~seed:7 ~n:80 ~mss:2

let prop_differential =
  QCheck.Test.make ~name:"sidx4 matches in-memory and oracle (random corpora)"
    ~count:5
    QCheck.(pair (int_range 1 3) small_nat)
    (fun (mss, seed) ->
      check_differential ~seed:(seed + 1) ~n:50 ~mss;
      true)

(* ---- governed evaluation over the mapped backend ------------------------ *)

let test_limits_differential () =
  with_dir @@ fun dir ->
  let trees = corpus 120 11 in
  List.iter
    (fun scheme ->
      let _, p4 = build_both dir ~scheme ~mss:2 ~trees in
      let s4 = ok_exn "open" (Si.open_ p4) in
      let heavy = "S(//NP)(//NP)" in
      let full = ok_exn "full" (Si.query s4 heavy) in
      (* a roomy budget must not change the answer *)
      let roomy =
        Limits.v ~deadline_ns:max_int ~max_decoded_bytes:max_int
          ~max_join_steps:max_int ~max_results:max_int ()
      in
      let o = ok_exn "roomy" (Si.query_outcome ~limits:roomy s4 heavy) in
      Alcotest.(check bool) "roomy not truncated" false o.Limits.truncated;
      Alcotest.(check (list (pair int int))) "roomy same answer" full
        o.Limits.matches;
      (* max-results truncation is a sorted prefix of the full answer *)
      let limits = Limits.v ~max_results:5 () in
      let o = ok_exn "capped" (Si.query_outcome ~limits s4 heavy) in
      if List.length full > 5 then begin
        Alcotest.(check bool) "capped truncated" true o.Limits.truncated;
        Alcotest.(check int) "capped length" 5 (List.length o.Limits.matches)
      end;
      List.iter
        (fun r ->
          if not (List.mem r full) then
            Alcotest.fail "truncated result not in the full answer")
        o.Limits.matches;
      (* a tight byte budget trips Resource_exhausted, softened by partial *)
      let tight = Limits.v ~max_decoded_bytes:1 () in
      (match Si.query ~limits:tight s4 heavy with
      | Error (Si_error.Resource_exhausted _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok m ->
          (* tiny postings may fit one block in a single decode *)
          Alcotest.(check (list (pair int int))) "tight exact" full m);
      let tight = Limits.v ~max_decoded_bytes:1 ~partial:true () in
      let o = ok_exn "tight partial" (Si.query_outcome ~limits:tight s4 heavy) in
      List.iter
        (fun r ->
          if not (List.mem r full) then
            Alcotest.fail "partial result not in the full answer")
        o.Limits.matches)
    schemes

(* ---- lazy CRC state ------------------------------------------------------ *)

let test_lazy_verification () =
  with_dir @@ fun dir ->
  let trees = corpus 100 3 in
  let _, p4 = build_both dir ~scheme:Coding.Interval ~mss:3 ~trees in
  let s4 = ok_exn "open" (Si.open_ p4) in
  let stats_of () = Option.get (Builder.mapped_stats (Si.index s4)) in
  let verified () =
    List.filter (fun r -> r.Builder.rverified) (stats_of ()).Builder.regions
    |> List.map (fun r -> r.Builder.rname)
  in
  Alcotest.(check (list string)) "all regions lazy at open" [] (verified ());
  let store = Option.get (Corpus.store (Si.corpus s4)) in
  Alcotest.(check bool) "store body lazy at open" false
    (Treestore.body_verified store);
  let before = (stats_of ()).Builder.resident_estimate in
  ignore (ok_exn "query" (Si.query s4 "S(NP)(VP)"));
  Alcotest.(check (list string)) "find + decode verified everything"
    [ "kindex"; "keydir"; "postings" ] (verified ());
  Alcotest.(check bool) "resolve verified the store" true
    (Treestore.body_verified store);
  Alcotest.(check bool) "resident estimate grew" true
    ((stats_of ()).Builder.resident_estimate > before);
  Alcotest.(check bool) "resident <= mapped" true
    ((stats_of ()).Builder.resident_estimate
    <= (stats_of ()).Builder.mapped_bytes)

(* ---- the corpus store in isolation -------------------------------------- *)

let test_treestore_roundtrip () =
  with_dir @@ fun dir ->
  let docs =
    Array.of_list (List.map Si_treebank.Annotated.of_tree (corpus 60 9))
  in
  let path = Filename.concat dir "t.trees" in
  Treestore.save path ~relabel:Fun.id docs;
  let st = Treestore.open_ ~relabel:Fun.id path in
  Alcotest.(check int) "length" (Array.length docs) (Treestore.length st);
  Array.iteri
    (fun tid d ->
      let open Si_treebank in
      let d' = Treestore.get st tid in
      Alcotest.(check string) "tree"
        (Tree.to_string d.Annotated.tree)
        (Tree.to_string d'.Annotated.tree);
      Alcotest.(check (array int)) "labels" d.Annotated.label d'.Annotated.label;
      Alcotest.(check (array int)) "post" d.Annotated.post d'.Annotated.post;
      Alcotest.(check (array int)) "level" d.Annotated.level d'.Annotated.level;
      Alcotest.(check (array int)) "parent" d.Annotated.parent d'.Annotated.parent)
    docs;
  (* out-of-range tids are corruption, not crashes *)
  List.iter
    (fun tid ->
      match Treestore.get st tid with
      | exception Si_error.Error (Si_error.Corrupt _) -> ()
      | exception e ->
          Alcotest.failf "tid %d: wrong exception %s" tid (Printexc.to_string e)
      | _ -> Alcotest.failf "tid %d out of range but answered" tid)
    [ -1; Array.length docs; max_int ]

(* ---- corruption: flips and truncations ----------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Every byte of both mapped files is covered by some CRC (header, one per
   body region, footer), so a single-byte flip anywhere must be caught: at
   open for header/footer damage, on first touch for body damage, and at
   the latest by a forced full verification.  A query racing ahead of the
   lazy check must still never return a wrong answer. *)
let check_flip ~clean p4 file pos =
  let pristine = read_file file in
  let mutated = Bytes.of_string pristine in
  Bytes.set mutated pos (Char.chr (Char.code (Bytes.get mutated pos) lxor 0x40));
  write_file file (Bytes.to_string mutated);
  Fun.protect ~finally:(fun () -> write_file file pristine) @@ fun () ->
  let ctx = Printf.sprintf "%s flipped at %d" (Filename.basename file) pos in
  match Si.open_ p4 with
  | Error (Si_error.Corrupt _) -> ()
  | Error e -> Alcotest.failf "%s: wrong open error: %s" ctx (Si_error.to_string e)
  | Ok si ->
      (match Si.query si "S(//NP)(//NP)" with
      | Error (Si_error.Corrupt _) -> ()
      | Error e ->
          Alcotest.failf "%s: wrong query error: %s" ctx (Si_error.to_string e)
      | Ok got ->
          (* the flip was in a region this query never touched *)
          Alcotest.(check (list (pair int int)))
            (ctx ^ ": lazy answer still exact") clean got);
      (* backstop: full verification must always notice *)
      (match Builder.verify_mapped (Si.index si) with
      | Error (Si_error.Corrupt _) -> ()
      | Error e ->
          Alcotest.failf "%s: wrong verify error: %s" ctx (Si_error.to_string e)
      | Ok () -> (
          match Option.iter Treestore.verify (Corpus.store (Si.corpus si)) with
          | () ->
              Alcotest.failf "%s: flip not detected by full verification" ctx
          | exception Si_error.Error (Si_error.Corrupt _) -> ()
          | exception e ->
              Alcotest.failf "%s: wrong exception %s" ctx (Printexc.to_string e)))

let test_corruption_flips () =
  with_dir @@ fun dir ->
  let trees = corpus 80 5 in
  let _, p4 = build_both dir ~scheme:Coding.Interval ~mss:3 ~trees in
  let clean =
    ok_exn "clean" (Si.query (ok_exn "open" (Si.open_ p4)) "S(//NP)(//NP)")
  in
  let rng = Random.State.make [| 2012 |] in
  List.iter
    (fun file ->
      let len = String.length (read_file file) in
      let fixed = [ 0; 5; 7; len / 2; len - 1; len - 5; len - 20 ] in
      let random =
        List.init 12 (fun _ -> Random.State.int rng len)
      in
      List.iter
        (fun pos ->
          if pos >= 0 && pos < len then check_flip ~clean p4 file pos)
        (fixed @ random))
    [ p4 ^ ".idx"; p4 ^ ".trees" ]

let test_corruption_truncations () =
  with_dir @@ fun dir ->
  let trees = corpus 60 6 in
  let _, p4 = build_both dir ~scheme:Coding.Interval ~mss:2 ~trees in
  List.iter
    (fun file ->
      let pristine = read_file file in
      let len = String.length pristine in
      List.iter
        (fun keep ->
          write_file file (String.sub pristine 0 keep);
          Fun.protect ~finally:(fun () -> write_file file pristine)
          @@ fun () ->
          match Si.open_ p4 with
          | Error (Si_error.Corrupt _) -> ()
          | Error e ->
              Alcotest.failf "%s cut to %d: wrong error: %s"
                (Filename.basename file) keep (Si_error.to_string e)
          | Ok _ ->
              Alcotest.failf "%s cut to %d bytes still opened"
                (Filename.basename file) keep)
        [ 0; 1; 7; 40; len / 2; len - 1 ])
    [ p4 ^ ".idx"; p4 ^ ".trees" ]

(* a missing .trees next to an intact SIDX4 .idx is an Io, not a crash *)
let test_missing_store () =
  with_dir @@ fun dir ->
  let trees = corpus 40 8 in
  let _, p4 = build_both dir ~scheme:Coding.Interval ~mss:2 ~trees in
  let store = p4 ^ ".trees" in
  let pristine = read_file store in
  Sys.remove store;
  Fun.protect ~finally:(fun () -> write_file store pristine) @@ fun () ->
  match Si.open_ p4 with
  | Error (Si_error.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
  | Ok _ -> Alcotest.fail "opened without its corpus store"

(* ---- the server's stats schema over a mapped handle ---------------------- *)

let test_index_json_backend () =
  with_dir @@ fun dir ->
  let trees = corpus 50 4 in
  let mem, p4 = build_both dir ~scheme:Coding.Interval ~mss:2 ~trees in
  let json si = Si_serve.Jsonx.to_string (Si_serve.Metrics.index_json si) in
  let j3 = json mem and j4 = json (ok_exn "open" (Si.open_ p4)) in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "in-memory heap" true (contains j3 "\"backend\":\"heap\"");
  Alcotest.(check bool) "in-memory no mapping" true
    (contains j3 "\"mapped_bytes\":0");
  Alcotest.(check bool) "sidx4 mapped" true
    (contains j4 "\"backend\":\"mapped\"");
  Alcotest.(check bool) "sidx4 mapping nonzero" false
    (contains j4 "\"mapped_bytes\":0")

let suite =
  [
    Alcotest.test_case "sidx4 = in-memory = oracle (fixed corpora)" `Quick
      test_differential_fixed;
    qcheck prop_differential;
    Alcotest.test_case "limits over the mapped backend" `Quick
      test_limits_differential;
    Alcotest.test_case "region CRCs verify lazily" `Quick test_lazy_verification;
    Alcotest.test_case "corpus store roundtrip" `Quick test_treestore_roundtrip;
    Alcotest.test_case "single-byte flips -> Corrupt, never wrong" `Slow
      test_corruption_flips;
    Alcotest.test_case "truncations -> Corrupt" `Quick
      test_corruption_truncations;
    Alcotest.test_case "missing .trees -> Io" `Quick test_missing_store;
    Alcotest.test_case "STATS index json reports the backend" `Quick
      test_index_json_backend;
  ]
