(* Resource governance, failpoint fault injection and crash consistency:
   the degradation contract of governed queries (exact / truncated /
   typed error), batch fault isolation, and the staged-save protocol that
   keeps a pre-existing index loadable through injected failures. *)

open Si_core

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let corpus n seed = Si_grammar.Generator.corpus ~seed ~n ()
let schemes = [ Coding.Filter; Coding.Interval; Coding.Root_split ]

(* enough structure that every scheme does real join/intersection work *)
let heavy = "S(//NP)(//NP)"
let cheap = "NP(DT)(NN)"

let build_si scheme = Si.build ~scheme ~mss:2 ~trees:(corpus 120 11) ()

let with_failpoints spec f =
  Failpoint.arm_exn spec;
  Fun.protect ~finally:Failpoint.clear f

let check_subset what sub full =
  List.iter
    (fun r ->
      if not (List.mem r full) then
        Alcotest.failf "%s: truncated result not in the full answer" what)
    sub

(* a scratch directory for prefix file sets *)
let with_dir f =
  let dir = Filename.temp_file "si_limits" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* ---- governed evaluation: the degradation contract ---------------------- *)

let test_ungoverned_unchanged () =
  Alcotest.(check bool) "none is none" true (Limits.is_none Limits.none);
  Alcotest.(check bool) "v () is none" true (Limits.is_none (Limits.v ()));
  List.iter
    (fun scheme ->
      let si = build_si scheme in
      let plain = ok_exn "plain" (Si.query si heavy) in
      (* a roomy budget must not change the answer *)
      let limits =
        Limits.v ~deadline_ns:max_int ~max_decoded_bytes:max_int
          ~max_join_steps:max_int ~max_results:max_int ()
      in
      let o = ok_exn "roomy" (Si.query_outcome ~limits si heavy) in
      Alcotest.(check bool) "roomy not truncated" false o.Limits.truncated;
      Alcotest.(check (list (pair int int))) "roomy same answer" plain
        o.Limits.matches)
    schemes

let test_deadline_zero () =
  List.iter
    (fun scheme ->
      let si = build_si scheme in
      let limits = Limits.v ~deadline_ns:0 () in
      (match Si.query ~limits si heavy with
      | Error (Si_error.Timeout _ as e) ->
          Alcotest.(check int) "timeout exit code" 6 (Si_error.exit_code e)
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "deadline 0 did not time out");
      (* partial degrades the same trip to a truncated Ok *)
      let limits = Limits.v ~deadline_ns:0 ~partial:true () in
      let o = ok_exn "partial timeout" (Si.query_outcome ~limits si heavy) in
      Alcotest.(check bool) "partial is truncated" true o.Limits.truncated;
      Alcotest.(check (list (pair int int))) "nothing verified at t=0" []
        o.Limits.matches)
    schemes

let test_max_results () =
  List.iter
    (fun scheme ->
      let si = build_si scheme in
      let full = ok_exn "full" (Si.query si heavy) in
      let n = List.length full in
      if n < 2 then Alcotest.failf "corpus too small: %d matches" n;
      let capped m = Limits.v ~max_results:m () in
      let o = ok_exn "capped" (Si.query_outcome ~limits:(capped (n - 1)) si heavy) in
      Alcotest.(check bool) "under-cap truncated" true o.Limits.truncated;
      Alcotest.(check int) "exactly m results" (n - 1)
        (List.length o.Limits.matches);
      check_subset "capped" o.Limits.matches full;
      (* a cap the answer fits in exactly is not a truncation *)
      let o = ok_exn "exact cap" (Si.query_outcome ~limits:(capped n) si heavy) in
      Alcotest.(check bool) "exact cap untruncated" false o.Limits.truncated;
      Alcotest.(check (list (pair int int))) "exact cap full answer" full
        o.Limits.matches)
    schemes

let test_step_budget () =
  List.iter
    (fun scheme ->
      let si = build_si scheme in
      let limits = Limits.v ~max_join_steps:1 () in
      (match Si.query ~limits si heavy with
      | Error (Si_error.Resource_exhausted { what; budget; spent } as e) ->
          Alcotest.(check string) "what" "join-steps" what;
          Alcotest.(check int) "budget" 1 budget;
          Alcotest.(check bool) "spent > budget" true (spent > budget);
          Alcotest.(check int) "exhausted exit code" 7 (Si_error.exit_code e)
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "1-step budget did not trip");
      (* the materialized (no-cache) evaluator is governed identically *)
      (match
         Si_query.Parser.parse_exn heavy
         |> Eval.run ~index:(Si.index si) ~corpus:(Si.corpus si) ~limits
       with
      | Error (Si_error.Resource_exhausted _) -> ()
      | Error e -> Alcotest.failf "materialized: wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "materialized path ungoverned");
      (* partial: a subset of the full answer, flagged *)
      let full = ok_exn "full" (Si.query si heavy) in
      let limits = Limits.v ~max_join_steps:1 ~partial:true () in
      let o = ok_exn "partial steps" (Si.query_outcome ~limits si heavy) in
      Alcotest.(check bool) "partial truncated" true o.Limits.truncated;
      check_subset "partial steps" o.Limits.matches full)
    schemes

let test_decode_budget () =
  List.iter
    (fun scheme ->
      let si = build_si scheme in
      let limits = Limits.v ~max_decoded_bytes:1 () in
      match Si.query ~limits si heavy with
      | Error (Si_error.Resource_exhausted { what; _ }) ->
          Alcotest.(check string) "what" "decoded-bytes" what
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "1-byte decode budget did not trip")
    schemes

let test_delay_injection_times_out () =
  (* deterministic mid-query timeout: every block decode sleeps 30 ms
     under a 10 ms deadline, so the first decode's charge trips it *)
  let si = build_si Coding.Interval in
  with_failpoints "cursor.decode=delay:30@1+" (fun () ->
      let limits = Limits.v ~deadline_ns:10_000_000 () in
      match Si.query ~limits si heavy with
      | Error (Si_error.Timeout { elapsed_ns; deadline_ns }) ->
          Alcotest.(check bool) "elapsed past deadline" true
            (elapsed_ns > deadline_ns)
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "delayed decode did not time out")

(* ---- batch fault isolation ---------------------------------------------- *)

let test_batch_limits_per_slot () =
  let si = build_si Coding.Root_split in
  let qs = [| cheap; heavy; "S((NP)" |] in
  let b = Si.query_batch ~limits:(Limits.v ~deadline_ns:0 ()) si qs in
  (* every governed slot times out on its own; the syntax error stays a
     syntax error; the batch itself survives *)
  (match b.Si.answers.(0) with
  | Error (Si_error.Timeout _) -> ()
  | r -> Alcotest.failf "slot 0: %s" (match r with Ok _ -> "ok" | Error e -> Si_error.to_string e));
  (match b.Si.answers.(1) with
  | Error (Si_error.Timeout _) -> ()
  | _ -> Alcotest.fail "slot 1 did not time out");
  (match b.Si.answers.(2) with
  | Error (Si_error.Bad_query _) -> ()
  | _ -> Alcotest.fail "slot 2 not a syntax error");
  Alcotest.(check int) "one latency per query" 3 (Array.length b.Si.latencies_ns);
  let ran =
    Array.fold_left (fun a (s : Si.domain_stat) -> a + s.Si.queries_run) 0
      b.Si.domain_stats
  in
  Alcotest.(check int) "every slot ran" 3 ran;
  Array.iter
    (fun (s : Si.domain_stat) ->
      Alcotest.(check (option string)) "no worker died" None s.Si.died)
    b.Si.domain_stats

let test_batch_isolates_internal_fault () =
  let si = build_si Coding.Interval in
  (* the first block decode of the batch raises a typed internal fault:
     it poisons exactly one slot, the rest of the batch answers *)
  with_failpoints "cursor.decode=fail@1" (fun () ->
      let b = Si.query_batch ~domains:1 si [| heavy; cheap; heavy |] in
      (match b.Si.answers.(0) with
      | Error (Si_error.Internal _ as e) ->
          Alcotest.(check int) "internal exit code" 8 (Si_error.exit_code e)
      | r ->
          Alcotest.failf "slot 0: %s"
            (match r with Ok _ -> "ok" | Error e -> Si_error.to_string e));
      ignore (ok_exn "slot 1" b.Si.answers.(1));
      let o2 = ok_exn "slot 2" b.Si.answers.(2) in
      let want = ok_exn "reference" (Si.query si heavy) in
      Alcotest.(check (list (pair int int))) "slot 2 answer intact" want
        o2.Limits.matches)

(* ---- failpoint registry ------------------------------------------------- *)

let test_failpoint_spec_parsing () =
  List.iter
    (fun bad ->
      match Failpoint.arm bad with
      | Ok () -> Alcotest.failf "accepted malformed spec %S" bad
      | Error _ -> ())
    [ "nonsense"; "x=bogus"; "x=fail@zzz"; "x=exit:999"; "=fail"; "x=short:x" ];
  Alcotest.(check bool) "nothing armed by rejects" false (Failpoint.active ());
  with_failpoints "cursor.seek=delay:0@2+; builder.load.read=short:10@p:0:42"
    (fun () -> Alcotest.(check bool) "armed" true (Failpoint.active ()));
  Alcotest.(check bool) "clear disarms" false (Failpoint.active ())

let test_failpoint_nth_trigger () =
  let si = build_si Coding.Interval in
  with_failpoints "cursor.decode=fail@3" (fun () ->
      (* per-handle cache: the first two decodes pass, the third raises;
         which query it lands in depends only on the deterministic decode
         order, so the outcome is stable *)
      let rec run i fails oks =
        if i = 0 then (fails, oks)
        else
          match Si.query si heavy with
          | Ok _ -> run (i - 1) fails (oks + 1)
          | Error (Si_error.Internal _) -> run (i - 1) (fails + 1) oks
          | Error e -> Alcotest.failf "unexpected: %s" (Si_error.to_string e)
      in
      let fails, oks = run 4 0 0 in
      Alcotest.(check int) "exactly one injected failure" 1 fails;
      Alcotest.(check int) "the rest answer" 3 oks)

(* ---- injected I/O failures and crash consistency ------------------------ *)

let test_sys_failpoint_aborts_save_cleanly () =
  let b =
    Builder.build ~scheme:Coding.Interval ~mss:2
      (Array.of_list (List.map Si_treebank.Annotated.of_tree (corpus 40 5)))
  in
  with_dir (fun dir ->
      let path = Filename.concat dir "ix.idx" in
      ok_exn "first save" (Builder.save b path) |> ignore;
      let before = In_channel.with_open_bin path In_channel.input_all in
      with_failpoints "builder.save.rename=sys" (fun () ->
          match Builder.save b path with
          | Error (Si_error.Io _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
          | Ok () -> Alcotest.fail "sys failpoint did not abort the save");
      Alcotest.(check bool) "no tmp litter" false (Sys.file_exists (path ^ ".tmp"));
      let after = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "previous file untouched" true (before = after))

let test_torn_read_is_corrupt () =
  let b =
    Builder.build ~scheme:Coding.Root_split ~mss:2
      (Array.of_list (List.map Si_treebank.Annotated.of_tree (corpus 40 5)))
  in
  with_dir (fun dir ->
      let path = Filename.concat dir "ix.idx" in
      ok_exn "save" (Builder.save b path) |> ignore;
      with_failpoints "builder.load.read=short:50" (fun () ->
          match Builder.load path with
          | Error (Si_error.Corrupt _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
          | Ok _ -> Alcotest.fail "torn read loaded"))

let rewrite_meta path f =
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
          match f l with
          | Some l' -> Out_channel.output_string oc (l' ^ "\n")
          | None -> ())
        lines)

let test_meta_idx_crc_cross_check () =
  with_dir (fun dir ->
      let prefix = Filename.concat dir "ix" in
      let _ =
        Si.build ~scheme:Coding.Interval ~mss:2 ~trees:(corpus 40 5) ~prefix ()
      in
      let idx_crc_line () =
        List.find
          (fun l -> String.length l >= 8 && String.sub l 0 8 = "idx_crc=")
          (String.split_on_char '\n'
             (In_channel.with_open_bin (prefix ^ ".meta") In_channel.input_all))
      in
      Alcotest.(check string) "idx_crc is the .idx footer digest"
        ("idx_crc=" ^ string_of_int (Builder.file_digest (prefix ^ ".idx")))
        (idx_crc_line ());
      (* a .meta written before the digest recorded the whole file's
         CRC-32: still the same file, still accepted *)
      let whole =
        Crc32.string (In_channel.with_open_bin (prefix ^ ".idx") In_channel.input_all)
      in
      rewrite_meta (prefix ^ ".meta") (fun l ->
          if String.length l >= 8 && String.sub l 0 8 = "idx_crc=" then
            Some ("idx_crc=" ^ string_of_int whole)
          else Some l);
      ignore (ok_exn "whole-file idx_crc" (Si.open_ prefix));
      (* a wrong idx_crc means a mixed file set: refused, not answered *)
      rewrite_meta (prefix ^ ".meta") (fun l ->
          if String.length l >= 8 && String.sub l 0 8 = "idx_crc=" then
            Some "idx_crc=12345"
          else Some l);
      (match Si.open_ prefix with
      | Error (Si_error.Schema_mismatch _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "mixed file set accepted");
      (* a pre-crc .meta (no idx_crc line) still loads: back-compat *)
      rewrite_meta (prefix ^ ".meta") (fun l ->
          if String.length l >= 8 && String.sub l 0 8 = "idx_crc=" then None
          else Some l);
      ignore (ok_exn "pre-crc meta" (Si.open_ prefix)))

let test_mixed_idx_detected () =
  with_dir (fun dir ->
      (* two prefixes, identical shape (scheme, mss, tree count) but
         different corpora: swapping one .idx in must be refused *)
      let p1 = Filename.concat dir "a" and p2 = Filename.concat dir "b" in
      let _ = Si.build ~scheme:Coding.Interval ~mss:2 ~trees:(corpus 40 5) ~prefix:p1 () in
      let _ = Si.build ~scheme:Coding.Interval ~mss:2 ~trees:(corpus 40 99) ~prefix:p2 () in
      let bytes = In_channel.with_open_bin (p2 ^ ".idx") In_channel.input_all in
      Out_channel.with_open_bin (p1 ^ ".idx") (fun oc ->
          Out_channel.output_string oc bytes);
      match Si.open_ p1 with
      | Error (Si_error.Schema_mismatch _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "foreign .idx accepted")

let test_aborted_resave_keeps_old_index () =
  with_dir (fun dir ->
      let prefix = Filename.concat dir "ix" in
      let trees_a = corpus 40 5 in
      let _ = Si.build ~scheme:Coding.Root_split ~mss:2 ~trees:trees_a ~prefix () in
      (* a re-save of a different corpus dies after staging, before any
         publish rename: the published set must be byte-for-byte the old
         index, still loadable and still answering from corpus A *)
      with_failpoints "si.save.siblings=sys" (fun () ->
          match
            Si.build ~scheme:Coding.Root_split ~mss:2 ~trees:(corpus 80 7)
              ~prefix ()
          with
          | exception Si_error.Error (Si_error.Io _) -> ()
          | _ -> Alcotest.fail "aborted re-save did not error");
      let si = ok_exn "open after aborted re-save" (Si.open_ prefix) in
      Alcotest.(check int) "old corpus intact" (List.length trees_a)
        (Corpus.length (Si.corpus si));
      ignore (ok_exn "still answers" (Si.query si cheap)))

let suite =
  [
    Alcotest.test_case "ungoverned/roomy limits unchanged" `Quick
      test_ungoverned_unchanged;
    Alcotest.test_case "deadline 0 -> Timeout / partial" `Quick test_deadline_zero;
    Alcotest.test_case "max-results truncation contract" `Quick test_max_results;
    Alcotest.test_case "join-step budget -> Resource_exhausted" `Quick
      test_step_budget;
    Alcotest.test_case "decode-byte budget -> Resource_exhausted" `Quick
      test_decode_budget;
    Alcotest.test_case "injected decode delay -> Timeout" `Quick
      test_delay_injection_times_out;
    Alcotest.test_case "batch: limits govern each slot" `Quick
      test_batch_limits_per_slot;
    Alcotest.test_case "batch: internal fault poisons one slot" `Quick
      test_batch_isolates_internal_fault;
    Alcotest.test_case "failpoint spec parsing" `Quick test_failpoint_spec_parsing;
    Alcotest.test_case "failpoint nth trigger" `Quick test_failpoint_nth_trigger;
    Alcotest.test_case "sys failpoint: save aborts cleanly" `Quick
      test_sys_failpoint_aborts_save_cleanly;
    Alcotest.test_case "torn read -> Corrupt" `Quick test_torn_read_is_corrupt;
    Alcotest.test_case ".meta idx_crc cross-check" `Quick
      test_meta_idx_crc_cross_check;
    Alcotest.test_case "foreign .idx refused" `Quick test_mixed_idx_detected;
    Alcotest.test_case "aborted re-save keeps old index" `Quick
      test_aborted_resave_keeps_old_index;
  ]
