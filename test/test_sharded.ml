(* Sharded handles (ISSUE 9): the router/manifest, the fan-out/merge
   query path pinned result-identical to the unsharded index (qcheck
   differential over all three codings × heap/mapped), the merge-level
   truncation contract under max_results, routed inserts + per-shard
   checkpoints, brownout degradation, and mixed-set refusal. *)

open Si_core

let qcheck = QCheck_alcotest.to_alcotest

let ok_exn what = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let corpus n seed = Si_grammar.Generator.corpus ~seed ~n ()

let temp_prefix tag =
  let base = Filename.temp_file ("si_shard_" ^ tag) "" in
  Sys.remove base;
  base

let exts = [ ".idx"; ".labels"; ".meta"; ".trees"; ".wal" ]

let rm_sharded p =
  List.iter (fun ext -> try Sys.remove (p ^ ext) with Sys_error _ -> ()) exts;
  (try Sys.remove (Shardmap.manifest_path p) with Sys_error _ -> ());
  for i = 0 to 15 do
    List.iter
      (fun ext ->
        try Sys.remove (Shardmap.shard_prefix p i ^ ext) with Sys_error _ -> ())
      exts
  done

let with_prefix tag f =
  let p = temp_prefix tag in
  Fun.protect ~finally:(fun () -> rm_sharded p) (fun () -> f p)

let query_strings =
  [
    "S(NP)(VP)";
    "NP(DT)(NN)";
    "S(NP(DT)(NN))(VP)";
    "VP(VBZ)(NP)";
    "S(//NP(NN))";
    "S(//NP)(//VP(VBD))";
  ]

let schemes = [ Coding.Filter; Coding.Interval; Coding.Root_split ]

(* ---- router / manifest --------------------------------------------------- *)

let test_router_deterministic () =
  (* same function, any process: spot-pin a few values so a silent hash
     change (which would orphan every existing manifest) fails loudly *)
  let h = Shardmap.shard_of_tid ~shards:4 in
  List.iter
    (fun tid ->
      Alcotest.(check int)
        (Printf.sprintf "tid %d stable" tid)
        (h tid)
        (Shardmap.shard_of_tid ~shards:4 tid))
    [ 0; 1; 2; 3; 17; 1000; 123456 ];
  (* every tid lands in range, and a few hundred spread over all shards *)
  let seen = Array.make 4 0 in
  for tid = 0 to 400 do
    let s = h tid in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i n -> if n = 0 then Alcotest.failf "shard %d never hit" i)
    seen

let test_manifest_roundtrip () =
  with_prefix "manifest" (fun p ->
      let map = { Shardmap.shards = 3; scheme = Coding.Interval; mss = 3 } in
      Shardmap.save map p;
      Alcotest.(check bool) "is_sharded" true (Shardmap.is_sharded p);
      let back = Shardmap.load p in
      Alcotest.(check int) "shards" 3 back.Shardmap.shards;
      Alcotest.(check int) "mss" 3 back.Shardmap.mss;
      Alcotest.(check bool)
        "scheme" true
        (back.Shardmap.scheme = Coding.Interval))

let test_manifest_refusals () =
  with_prefix "refuse" (fun p ->
      let path = Shardmap.manifest_path p in
      let write lines =
        let oc = open_out_bin path in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc
      in
      write [ "version=1"; "router=other-v9"; "shards=2"; "scheme=interval";
              "mss=3" ];
      (match Si_error.guard (fun () -> Shardmap.load p) with
      | Error (Si_error.Schema_mismatch _) -> ()
      | _ -> Alcotest.fail "unknown router accepted");
      write [ "version=1"; "router=" ^ Shardmap.router; "shards=0";
              "scheme=interval"; "mss=3" ];
      (match Si_error.guard (fun () -> Shardmap.load p) with
      | Error (Si_error.Schema_mismatch _) -> ()
      | _ -> Alcotest.fail "zero shards accepted");
      write [ "router=" ^ Shardmap.router; "shards=2"; "scheme=interval" ];
      (match Si_error.guard (fun () -> Shardmap.load p) with
      | Error (Si_error.Corrupt _) -> ()
      | _ -> Alcotest.fail "missing fields accepted"))

(* ---- build / open / query ------------------------------------------------ *)

let build_pair ?(shards = 3) ?(scheme = Coding.Root_split) ~n ~seed p =
  let trees = corpus n seed in
  let sh =
    ok_exn "build_sharded"
      (Si.build_sharded ~shards ~scheme ~mss:3 ~trees p)
  in
  let single = Si.build ~scheme ~mss:3 ~trees () in
  (trees, sh, single)

let test_sharded_basic () =
  with_prefix "basic" (fun p ->
      let _, sh, single = build_pair ~n:60 ~seed:11 p in
      Alcotest.(check int) "shard count" 3 (Si.shard_count sh);
      Alcotest.(check int) "total" 60 (Si.sharded_total sh);
      List.iter
        (fun q ->
          let want = ok_exn "single" (Si.query single q) in
          let got = ok_exn "sharded" (Si.query_sharded sh q) in
          Alcotest.(check (list (pair int int))) ("query " ^ q) want got)
        query_strings;
      (* reopen from disk: same answers *)
      let reopened = ok_exn "open_sharded" (Si.open_sharded p) in
      List.iter
        (fun q ->
          let want = ok_exn "single" (Si.query single q) in
          let got = ok_exn "reopened" (Si.query_sharded reopened q) in
          Alcotest.(check (list (pair int int))) ("reopen " ^ q) want got)
        query_strings;
      (* open_any dispatches to the sharded handle *)
      match ok_exn "open_any" (Si.open_any p) with
      | Si.Sharded _ -> ()
      | Si.Single _ -> Alcotest.fail "open_any missed the manifest")

let test_sentence_sharded () =
  with_prefix "sentence" (fun p ->
      let trees, sh, _ = build_pair ~n:40 ~seed:23 p in
      List.iteri
        (fun g tree ->
          let got = Si.sentence_sharded sh g in
          if got <> tree then Alcotest.failf "sentence %d differs" g)
        trees)

let test_empty_shards () =
  (* 2 trees over 4 shards: at least two shards are empty, and the set
     must still build, open, and answer *)
  with_prefix "empty" (fun p ->
      let _, sh, single = build_pair ~shards:4 ~n:2 ~seed:5 p in
      let reopened = ok_exn "open empty shards" (Si.open_sharded p) in
      List.iter
        (fun q ->
          let want = ok_exn "single" (Si.query single q) in
          List.iter
            (fun h ->
              let got = ok_exn "sharded" (Si.query_sharded h q) in
              Alcotest.(check (list (pair int int))) ("query " ^ q) want got)
            [ sh; reopened ])
        query_strings)

let qcheck_differential =
  QCheck.Test.make ~name:"sharded query = unsharded query" ~count:4
    QCheck.(triple (int_range 20 60) (int_range 2 4) small_nat)
    (fun (n, shards, seed) ->
      List.iter
        (fun scheme ->
          let tag =
            Printf.sprintf "%s-%d" (Coding.scheme_to_string scheme) shards
          in
          let p = temp_prefix "qc" in
          Fun.protect ~finally:(fun () -> rm_sharded p) (fun () ->
              let trees = corpus n (seed + 1) in
              let sh =
                match
                  Si.build_sharded ~shards ~scheme ~mss:3 ~trees p
                with
                | Ok sh -> sh
                | Error e ->
                    QCheck.Test.fail_reportf "%s: build_sharded: %s" tag
                      (Si_error.to_string e)
              in
              let single = Si.build ~scheme ~mss:3 ~trees () in
              let reopened =
                match Si.open_sharded p with
                | Ok h -> h
                | Error e ->
                    QCheck.Test.fail_reportf "%s: open_sharded: %s" tag
                      (Si_error.to_string e)
              in
              List.iter
                (fun q ->
                  let want =
                    ok_exn "single" (Si.query single q)
                  in
                  let fresh = ok_exn "built" (Si.query_sharded sh q) in
                  let disk =
                    ok_exn "reopened" (Si.query_sharded reopened q)
                  in
                  if fresh <> want then
                    QCheck.Test.fail_reportf
                      "%s: %s: built sharded diverges (%d vs %d)" tag q
                      (List.length fresh) (List.length want);
                  if disk <> want then
                    QCheck.Test.fail_reportf
                      "%s: %s: reopened sharded diverges (%d vs %d)" tag q
                      (List.length disk) (List.length want);
                  (* and the sharded oracle agrees with the plain one *)
                  let ast = Si_query.Parser.parse_exn q in
                  if Si.oracle_sharded reopened ast <> Si.oracle single ast
                  then
                    QCheck.Test.fail_reportf "%s: %s: oracle diverges" tag
                      q)
                query_strings))
        schemes;
      true)

(* ---- merge under max_results: the truncation contract -------------------- *)

let test_merge_truncation () =
  with_prefix "trunc" (fun p ->
      let _, sh, single = build_pair ~n:80 ~seed:31 p in
      List.iter
        (fun q ->
          let exact = ok_exn "exact" (Si.query single q) in
          let full = List.length exact in
          List.iter
            (fun m ->
              let limits = Limits.v ~max_results:m () in
              let so =
                ok_exn "capped" (Si.query_outcome_sharded ~limits sh q)
              in
              let got = so.Si.so_outcome.Limits.matches in
              Alcotest.(check bool)
                (Printf.sprintf "%s cap %d: count" q m)
                true
                (List.length got <= m);
              (* subset of the exact answer — the ⊂ of truncated-⊂-exact *)
              List.iter
                (fun r ->
                  if not (List.mem r exact) then
                    Alcotest.failf "%s cap %d: non-answer %d,%d emitted" q m
                      (fst r) (snd r))
                got;
              if full > m then
                Alcotest.(check bool)
                  (Printf.sprintf "%s cap %d: truncated flag" q m)
                  true so.Si.so_outcome.Limits.truncated
              else begin
                Alcotest.(check bool)
                  (Printf.sprintf "%s cap %d: exact" q m)
                  true
                  (got = exact)
              end)
            [ 1; 2; 5; 1000 ])
        query_strings)

(* ---- brownout degradation ------------------------------------------------ *)

let test_degrade_failpoint () =
  with_prefix "degrade" (fun p ->
      let _, sh, single = build_pair ~n:50 ~seed:41 p in
      (* @1+ = every hit (the bare action is one-shot) *)
      Failpoint.arm_exn "si.shard.eval.1=fail@1+";
      Fun.protect ~finally:Failpoint.clear (fun () ->
          let q = "S(NP)(VP)" in
          (* strict mode: the failed leg fails the query *)
          (match Si.query_outcome_sharded sh q with
          | Error (Si_error.Internal _) -> ()
          | Error e ->
              Alcotest.failf "strict: wrong error %s" (Si_error.to_string e)
          | Ok _ -> Alcotest.fail "strict: failed leg answered Ok");
          (* degrade mode: brownout — the healthy shards answer *)
          let so =
            ok_exn "degrade"
              (Si.query_outcome_sharded ~degrade:true sh q)
          in
          Alcotest.(check bool)
            "degraded flag" true so.Si.so_outcome.Limits.truncated;
          (match so.Si.so_failed with
          | [ (1, Si_error.Internal _) ] -> ()
          | _ -> Alcotest.fail "expected shard 1 reported failed");
          let exact = ok_exn "exact" (Si.query single q) in
          List.iter
            (fun r ->
              if not (List.mem r exact) then
                Alcotest.fail "degraded answer not a subset")
            so.Si.so_outcome.Limits.matches);
      (* all legs down: no brownout possible, the query fails *)
      for i = 0 to 2 do
        Failpoint.arm_exn (Printf.sprintf "si.shard.eval.%d=fail@1+" i)
      done;
      Fun.protect ~finally:Failpoint.clear (fun () ->
          match Si.query_outcome_sharded ~degrade:true sh "S(NP)(VP)" with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "all-shards-down answered Ok"))

(* ---- routed inserts + per-shard checkpoints ------------------------------ *)

let test_insert_checkpoint_sharded () =
  with_prefix "ins" (fun p ->
      let base = corpus 30 51 in
      let extra = corpus 8 151 in
      let sh =
        ok_exn "build"
          (Si.build_sharded ~shards:3 ~scheme:Coding.Root_split ~mss:3
             ~trees:base p)
      in
      Alcotest.(check int)
        "insert total" 38
        (ok_exn "insert" (Si.insert_sharded sh extra));
      Alcotest.(check int) "pending" 8 (Si.pending_sharded sh);
      Alcotest.(check bool) "wal bytes" true (Si.wal_bytes_sharded sh > 0);
      let full = Si.build ~scheme:Coding.Root_split ~mss:3 ~trees:(base @ extra) () in
      let check_against what h =
        List.iter
          (fun q ->
            let want = ok_exn "full" (Si.query full q) in
            let got = ok_exn what (Si.query_sharded h q) in
            Alcotest.(check (list (pair int int))) (what ^ ": " ^ q) want got)
          query_strings
      in
      check_against "live" sh;
      (* WAL replay across a reopen *)
      Si.close_wal_sharded sh;
      let replayed = ok_exn "reopen" (Si.open_sharded p) in
      check_against "replayed" replayed;
      (* checkpoint one shard only: its debt drains, the others keep
         theirs.  The live old handle keeps answering from old-main +
         delta (same match set); the per-shard flip sheds the delta. *)
      let shard0_pending = Si.pending (Si.shard_handles replayed).(0) in
      let folded = ok_exn "ckpt0" (Si.checkpoint_sharded ~shard:0 replayed) in
      Alcotest.(check int) "shard 0 folded" shard0_pending folded;
      check_against "after shard-0 checkpoint, old handle" replayed;
      Si.close_wal (Si.shard_handles replayed).(0);
      let flipped0 = ok_exn "flip shard 0" (Si.reopen_shard replayed 0) in
      Alcotest.(check int)
        "others keep debt"
        (8 - shard0_pending)
        (Si.pending_sharded flipped0);
      check_against "after shard-0 flip" flipped0;
      (* checkpoint the rest, reopen: clean set, same answers *)
      ignore (ok_exn "ckpt all" (Si.checkpoint_sharded flipped0));
      Si.close_wal_sharded flipped0;
      Si.close_wal_sharded replayed;
      let clean = ok_exn "clean reopen" (Si.open_sharded p) in
      Alcotest.(check int) "clean pending" 0 (Si.pending_sharded clean);
      check_against "clean" clean;
      (* per-shard zero-downtime flip: reopen_shard keeps answering *)
      let flipped = ok_exn "reopen_shard" (Si.reopen_shard clean 1) in
      check_against "flipped" flipped)

(* ---- mixed-set refusal --------------------------------------------------- *)

let test_mixed_set_refused () =
  with_prefix "mixed" (fun p ->
      let trees = corpus 40 61 in
      ignore
        (ok_exn "build"
           (Si.build_sharded ~shards:2 ~scheme:Coding.Interval ~mss:3 ~trees p));
      (* a manifest claiming 3 shards over a 2-shard file set: refused
         (shard 2 has no files -> Io; a forged empty shard 2 would skew
         the count assignment -> Schema_mismatch) *)
      Shardmap.save { Shardmap.shards = 3; scheme = Coding.Interval; mss = 3 } p;
      (match Si.open_sharded p with
      | Error (Si_error.Io _ | Si_error.Schema_mismatch _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "mixed manifest accepted");
      (* manifest scheme disagreeing with the member shards: refused *)
      Shardmap.save
        { Shardmap.shards = 2; scheme = Coding.Filter; mss = 3 }
        p;
      (match Si.open_sharded p with
      | Error (Si_error.Schema_mismatch _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "mixed scheme accepted");
      (* restore, then swap shard 1's files for a different corpus: the
         count assignment no longer matches the router -> refused *)
      Shardmap.save { Shardmap.shards = 2; scheme = Coding.Interval; mss = 3 } p;
      ignore (ok_exn "restore opens" (Si.open_sharded p));
      let foreign = corpus 11 999 in
      ignore
        (Si.build ~scheme:Coding.Interval ~mss:3 ~trees:foreign
           ~prefix:(Shardmap.shard_prefix p 1) ());
      match Si.open_sharded p with
      | Error (Si_error.Schema_mismatch _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "foreign shard accepted")

let suite =
  [
    Alcotest.test_case "shardmap: router deterministic and spread" `Quick
      test_router_deterministic;
    Alcotest.test_case "shardmap: manifest roundtrip" `Quick
      test_manifest_roundtrip;
    Alcotest.test_case "shardmap: malformed manifests refused" `Quick
      test_manifest_refusals;
    Alcotest.test_case "sharded: build/open/query = unsharded" `Quick
      test_sharded_basic;
    Alcotest.test_case "sharded: sentence by global tid" `Quick
      test_sentence_sharded;
    Alcotest.test_case "sharded: empty shards build and answer" `Quick
      test_empty_shards;
    qcheck qcheck_differential;
    Alcotest.test_case "sharded: merge truncation contract" `Quick
      test_merge_truncation;
    Alcotest.test_case "sharded: brownout degradation via failpoint" `Quick
      test_degrade_failpoint;
    Alcotest.test_case "sharded: routed insert + per-shard checkpoint" `Quick
      test_insert_checkpoint_sharded;
    Alcotest.test_case "sharded: mixed shard sets refused" `Quick
      test_mixed_set_refused;
  ]
