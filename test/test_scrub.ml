(* Self-healing integrity (DESIGN.md §15): scrub, quarantine, repair.

   The contract under test: a corrupted SIDX4 prefix still answers every
   query *exactly* — the first query that touches the damage quarantines
   the handle and the evaluator falls back to the zero-copy corpus store
   (oracle semantics, degraded flag set) — the scrub localizes the damage
   without ever raising, and a repair rebuilt purely from the corpus
   store + WAL delta answers byte-identically to a fresh build over the
   same trees. *)

open Si_core

let qcheck = QCheck_alcotest.to_alcotest

let ok_exn what = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let corpus n seed = Si_grammar.Generator.corpus ~seed ~n ()
let schemes = [ Coding.Filter; Coding.Interval; Coding.Root_split ]

let queries =
  [
    "S(NP)(VP)";
    "S(NP(DT)(NN))(VP)";
    "NP(DT)(NN)";
    "S(//NN)";
    "S(//NP)(//NP)";
    "VP(VBZ)(NP(DT)(NN))";
  ]

let with_dir f =
  let dir = Filename.temp_file "si_scrub" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

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

let flip_byte file pos =
  let b = Bytes.of_string (read_file file) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
  write_file file (Bytes.to_string b)

(* the byte span of a named lazily-verified .idx region, read off a clean
   handle (offsets are a property of the file, not the handle) *)
let region_span prefix name =
  let si = ok_exn "open for layout" (Si.open_ prefix) in
  match
    List.find_opt
      (fun (n, _, _, _) -> n = name)
      (Builder.scrub_regions (Si.index si))
  with
  | Some (_, off, len, _) -> (off, len)
  | None -> Alcotest.failf "no %s region in %s.idx" name prefix

(* ---- quarantine fallback = oracle over a corrupted postings region ------ *)

let check_fallback_exact ~seed ~n ~mss scheme =
  with_dir @@ fun dir ->
  let trees = corpus n seed in
  let prefix = Filename.concat dir "ix" in
  ignore (Si.build ~scheme ~mss ~trees ~prefix ());
  let off, len = region_span prefix "postings" in
  flip_byte (prefix ^ ".idx") (off + (len / 2));
  let si = ok_exn "open corrupted" (Si.open_ prefix) in
  Alcotest.(check bool) "not quarantined before first touch" false
    (Si.quarantined si);
  List.iter
    (fun qstr ->
      let o = ok_exn ("fallback " ^ qstr) (Si.query_outcome si qstr) in
      let oracle = Si.oracle si (Si_query.Parser.parse_exn qstr) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s/%s fallback = oracle"
           (Coding.scheme_to_string scheme) qstr)
        oracle o.Limits.matches;
      Alcotest.(check bool) (qstr ^ " degraded") true o.Limits.degraded;
      Alcotest.(check bool) (qstr ^ " not truncated") false o.Limits.truncated)
    queries;
  Alcotest.(check bool) "quarantined after discovery" true (Si.quarantined si);
  let st = Si.integrity si in
  Alcotest.(check bool) "state degraded" true (st.Si.state = `Degraded);
  Alcotest.(check bool) "fallbacks counted" true
    (st.Si.fallback_answers >= List.length queries)

let test_fallback_fixed () =
  List.iter (fun s -> check_fallback_exact ~seed:19 ~n:90 ~mss:3 s) schemes

let prop_fallback =
  QCheck.Test.make ~name:"quarantine fallback = oracle (random corpora)"
    ~count:4
    QCheck.(pair (int_range 1 3) small_nat)
    (fun (mss, seed) ->
      check_fallback_exact ~seed:(seed + 1) ~n:40 ~mss Coding.Root_split;
      true)

(* governed fallback: limits still bound the oracle path *)
let test_fallback_limits () =
  with_dir @@ fun dir ->
  let trees = corpus 100 23 in
  let prefix = Filename.concat dir "ix" in
  ignore
    (Si.build ~scheme:Coding.Interval ~mss:2 ~trees ~prefix ());
  let off, len = region_span prefix "postings" in
  flip_byte (prefix ^ ".idx") (off + (len / 3));
  let si = ok_exn "open" (Si.open_ prefix) in
  let full =
    (ok_exn "full" (Si.query_outcome si "S(//NP)(//NP)")).Limits.matches
  in
  let limits = Limits.v ~max_results:4 () in
  let o = ok_exn "capped" (Si.query_outcome ~limits si "S(//NP)(//NP)") in
  Alcotest.(check bool) "capped degraded" true o.Limits.degraded;
  if List.length full > 4 then begin
    Alcotest.(check bool) "capped truncated" true o.Limits.truncated;
    Alcotest.(check int) "capped length" 4 (List.length o.Limits.matches)
  end;
  List.iter
    (fun r ->
      if not (List.mem r full) then
        Alcotest.fail "capped fallback result not in the full answer")
    o.Limits.matches;
  (* a starved partial budget degrades to truncated, never to an error *)
  let tight = Limits.v ~max_decoded_bytes:1 ~partial:true () in
  let o = ok_exn "tight" (Si.query_outcome ~limits:tight si "S(//NP)(//NP)") in
  Alcotest.(check bool) "tight degraded" true o.Limits.degraded

(* ---- scrub: localization, budgets, cursor resumption -------------------- *)

let test_scrub_clean () =
  with_dir @@ fun dir ->
  let trees = corpus 80 31 in
  let prefix = Filename.concat dir "ix" in
  ignore
    (Si.build ~scheme:Coding.Root_split ~mss:3 ~trees ~prefix ());
  let si = ok_exn "open" (Si.open_ prefix) in
  let r = Si.scrub si in
  Alcotest.(check bool) "complete" true r.Scrub.complete;
  Alcotest.(check bool) "clean" true r.Scrub.clean;
  Alcotest.(check bool) "not quarantined" false (Si.quarantined si);
  (* a clean cycle commits the lazy flags: the next cycle re-verifies
     the same regions and still reports clean *)
  let r2 = Si.scrub si in
  Alcotest.(check bool) "second cycle clean" true r2.Scrub.clean;
  (* budgeted passes resume through the cursor and converge on the same
     verdict *)
  let budget = Scrub.budget ~max_bytes:4096 () in
  let passes = ref 0 in
  let rec drive () =
    incr passes;
    let r = Si.scrub ~budget si in
    if not r.Scrub.complete then drive () else r
  in
  let r3 = drive () in
  Alcotest.(check bool) "budgeted cycle clean" true r3.Scrub.clean;
  Alcotest.(check bool) "budget forced multiple passes" true (!passes > 1)

let test_scrub_localizes () =
  with_dir @@ fun dir ->
  let trees = corpus 70 37 in
  let prefix = Filename.concat dir "ix" in
  ignore
    (Si.build ~scheme:Coding.Interval ~mss:3 ~trees ~prefix ());
  let off, len = region_span prefix "postings" in
  flip_byte (prefix ^ ".idx") (off + (len / 2));
  let si = ok_exn "open" (Si.open_ prefix) in
  let rec drive () =
    let r = Si.scrub ~budget:(Scrub.budget ~max_bytes:8192 ()) si in
    if r.Scrub.complete then r else drive ()
  in
  let r = drive () in
  Alcotest.(check bool) "found the bad region" true
    (List.mem "postings" r.Scrub.bad_regions);
  Alcotest.(check bool) "not clean" false r.Scrub.clean;
  Alcotest.(check bool) "scrub quarantined the handle" true (Si.quarantined si);
  (* a query after the scrub is exact via the fallback *)
  let o = ok_exn "post-scrub query" (Si.query_outcome si "S(NP)(VP)") in
  Alcotest.(check (list (pair int int))) "post-scrub = oracle"
    (Si.oracle si (Si_query.Parser.parse_exn "S(NP)(VP)"))
    o.Limits.matches;
  let st = Si.integrity si in
  Alcotest.(check int) "scrub passes counted" !(ref st.Si.scrub_passes)
    st.Si.scrub_passes;
  Alcotest.(check bool) "scrub bytes counted" true (st.Si.scrub_bytes > 0)

(* .trees damage is corpus-store damage: reported, not quarantined (the
   fallback needs the store — nothing to hide behind) *)
let test_scrub_store_damage () =
  with_dir @@ fun dir ->
  let trees = corpus 60 41 in
  let prefix = Filename.concat dir "ix" in
  ignore
    (Si.build ~scheme:Coding.Interval ~mss:2 ~trees ~prefix ());
  (* flip inside the trees region of the store, clear of its footer *)
  let store = prefix ^ ".trees" in
  let len = String.length (read_file store) in
  flip_byte store (len / 2);
  let si = ok_exn "open" (Si.open_ prefix) in
  let rec drive () =
    let r = Si.scrub si in
    if r.Scrub.complete then r else drive ()
  in
  let r = drive () in
  Alcotest.(check bool) "store region reported" true
    (List.exists
       (fun n -> n = "ts_trees" || n = "ts_offsets")
       r.Scrub.bad_regions);
  Alcotest.(check bool) "store damage does not quarantine" false
    (Si.quarantined si)

(* ---- repair = fresh rebuild --------------------------------------------- *)

let answers si =
  List.map (fun q -> ok_exn q (Si.query si q)) queries

let check_repair ~scheme ~mss ~corrupt_first =
  with_dir @@ fun dir ->
  let trees = corpus 75 47 in
  let prefix = Filename.concat dir "ix" in
  ignore (Si.build ~scheme ~mss ~trees ~prefix ());
  if corrupt_first then begin
    let off, len = region_span prefix "postings" in
    flip_byte (prefix ^ ".idx") (off + (len / 2))
  end;
  let si = ok_exn "open" (Si.open_ prefix) in
  let repaired = ok_exn "repair" (Si.repair si) in
  Alcotest.(check int) "repair keeps every tree" (List.length trees) repaired;
  (* the repaired prefix reopens clean and answers = a fresh build *)
  let si' = ok_exn "reopen repaired" (Si.open_ prefix) in
  Alcotest.(check bool) "reopened clean" false (Si.quarantined si');
  let fresh_prefix = Filename.concat dir "fresh" in
  let fresh = Si.build ~scheme ~mss ~trees ~prefix:fresh_prefix () in
  List.iter2
    (fun got want ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s mss=%d repaired = fresh"
           (Coding.scheme_to_string scheme) mss)
        want got)
    (answers si')
    (answers fresh);
  (* and the repaired bytes verify end to end *)
  let r = Si.scrub si' in
  Alcotest.(check bool) "repaired scrubs clean" true r.Scrub.clean

let test_repair_differential () =
  List.iter
    (fun scheme ->
      check_repair ~scheme ~mss:3 ~corrupt_first:true;
      check_repair ~scheme ~mss:2 ~corrupt_first:false)
    schemes

let prop_repair =
  QCheck.Test.make ~name:"repair-then-query = fresh rebuild (random)"
    ~count:3
    QCheck.(pair (int_range 1 3) small_nat)
    (fun (mss, seed) ->
      with_dir (fun dir ->
          let trees = corpus 40 (seed + 3) in
          let prefix = Filename.concat dir "ix" in
          ignore
            (Si.build ~scheme:Coding.Interval ~mss ~trees
               ~prefix ());
          let off, len = region_span prefix "postings" in
          flip_byte (prefix ^ ".idx") (off + (len / 2));
          let si = ok_exn "open" (Si.open_ prefix) in
          ignore (ok_exn "repair" (Si.repair si));
          let si' = ok_exn "reopen" (Si.open_ prefix) in
          List.iter
            (fun q ->
              let got = ok_exn q (Si.query si' q) in
              let want = Si.oracle si' (Si_query.Parser.parse_exn q) in
              if got <> want then
                Alcotest.failf "repaired %s diverges from oracle" q)
            queries);
      true)

(* repair folds the WAL delta: acknowledged inserts survive the rebuild *)
let test_repair_folds_delta () =
  with_dir @@ fun dir ->
  let trees = corpus 50 53 in
  let extra = corpus 7 59 in
  let prefix = Filename.concat dir "ix" in
  ignore
    (Si.build ~scheme:Coding.Root_split ~mss:3 ~trees ~prefix ());
  let si = ok_exn "open" (Si.open_ prefix) in
  ignore (ok_exn "insert" (Si.insert si extra));
  let want = answers si in
  let off, len = region_span prefix "postings" in
  flip_byte (prefix ^ ".idx") (off + (len / 2));
  let si = ok_exn "reopen corrupted" (Si.open_ prefix) in
  let repaired = ok_exn "repair" (Si.repair si) in
  Alcotest.(check int) "main + delta trees"
    (List.length trees + List.length extra)
    repaired;
  let si' = ok_exn "reopen repaired" (Si.open_ prefix) in
  Alcotest.(check int) "delta folded, wal empty" 0 (Si.pending si');
  List.iter2
    (fun got want ->
      Alcotest.(check (list (pair int int))) "post-repair answers" want got)
    (answers si') want

(* Every write path publishes the same four-file set: no corpus copy
   beside the .trees store, no staging litter left behind. *)
let test_file_set () =
  List.iter
    (fun scheme ->
      with_dir @@ fun dir ->
      let prefix = Filename.concat dir "ix" in
      let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
      let four = [ "ix.idx"; "ix.labels"; "ix.meta"; "ix.trees" ] in
      ignore (Si.build ~scheme ~mss:2 ~trees:(corpus 30 71) ~prefix ());
      Alcotest.(check (list string)) "after build" four (files ());
      let si = ok_exn "open" (Si.open_ prefix) in
      ignore (ok_exn "insert" (Si.insert si (corpus 3 73)));
      let with_wal = List.sort compare ("ix.wal" :: four) in
      Alcotest.(check (list string)) "after insert" with_wal (files ());
      ignore (ok_exn "checkpoint" (Si.checkpoint si));
      Alcotest.(check (list string)) "after checkpoint" with_wal (files ());
      ignore (ok_exn "insert again" (Si.insert si (corpus 2 79)));
      ignore (ok_exn "repair" (Si.repair si));
      Si.close_wal si;
      Alcotest.(check (list string)) "after repair" with_wal (files ());
      let si' = ok_exn "reopen" (Si.open_ prefix) in
      Alcotest.(check int) "every tree kept" 35 (Corpus.length (Si.corpus si'));
      List.iter
        (fun q ->
          Alcotest.(check (list (pair int int)))
            (Coding.scheme_to_string scheme ^ " " ^ q)
            (Si.oracle si' (Si_query.Parser.parse_exn q))
            (ok_exn q (Si.query si' q)))
        queries)
    schemes

let suite =
  [
    Alcotest.test_case "corrupted postings: fallback = oracle" `Quick
      test_fallback_fixed;
    qcheck prop_fallback;
    Alcotest.test_case "fallback respects limits" `Quick test_fallback_limits;
    Alcotest.test_case "scrub: clean cycles, budgets, cursor" `Quick
      test_scrub_clean;
    Alcotest.test_case "scrub localizes postings damage" `Quick
      test_scrub_localizes;
    Alcotest.test_case "store damage reported, not quarantined" `Quick
      test_scrub_store_damage;
    Alcotest.test_case "repair = fresh rebuild (3 codings x 2 states)" `Quick
      test_repair_differential;
    qcheck prop_repair;
    Alcotest.test_case "repair folds the WAL delta" `Quick
      test_repair_folds_delta;
    Alcotest.test_case "file set: .idx .trees .labels .meta (+ .wal) only"
      `Quick test_file_set;
  ]
