(* WAL-backed incremental inserts (ISSUE 8): the prefix.wal record format
   (CRC framing, torn-tail tolerance, corruption detection), idempotent
   replay into the delta index, checkpoint merge equivalence across every
   crash window, and the differential pin: a corpus of N trees plus K
   inserted through the WAL answers every query identically to a full
   rebuild over N+K — all three codings, heap and mapped containers. *)

open Si_treebank
open Si_core

let qcheck = QCheck_alcotest.to_alcotest

let ok_exn what = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let corpus n seed = Si_grammar.Generator.corpus ~seed ~n ()

let temp_prefix tag =
  let base = Filename.temp_file ("si_wal_" ^ tag) "" in
  Sys.remove base;
  base

let rm_prefix p =
  List.iter
    (fun ext -> try Sys.remove (p ^ ext) with Sys_error _ -> ())
    [ ".idx"; ".dat"; ".labels"; ".meta"; ".trees"; ".wal" ]

let with_prefix tag f =
  let p = temp_prefix tag in
  Fun.protect ~finally:(fun () -> rm_prefix p) (fun () -> f p)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let append_bytes path s =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  output_string oc s;
  close_out oc

let query_strings =
  [
    "S(NP)(VP)";
    "NP(DT)(NN)";
    "S(NP(DT)(NN))(VP)";
    "VP(VBZ)(NP)";
    "S(//NP(NN))";
    "S(//NP)(//VP(VBD))";
  ]

let check_queries what a b =
  List.iter
    (fun q ->
      let ra = ok_exn (what ^ ": " ^ q) (Si.query a q) in
      let rb = ok_exn (what ^ ": " ^ q) (Si.query b q) in
      Alcotest.(check (list (pair int int))) (what ^ ": " ^ q) rb ra)
    query_strings

let check_oracle what si =
  List.iter
    (fun q ->
      let got = ok_exn (what ^ ": " ^ q) (Si.query si q) in
      let want = Si.oracle si (Si_query.Parser.parse_exn q) in
      Alcotest.(check (list (pair int int))) (what ^ ": oracle " ^ q) want got)
    query_strings

(* ---- the log itself ----------------------------------------------------- *)

let test_wal_roundtrip () =
  with_prefix "rt" (fun p ->
      let trees = corpus 5 3 in
      let w = Wal.open_append ~scheme:Coding.Root_split ~mss:3 p in
      Wal.append w ~tid:10 trees;
      Alcotest.(check int) "records" 5 (Wal.records w);
      Alcotest.(check bool) "bytes past header" true (Wal.bytes w > 8);
      Wal.close w;
      Wal.close w;
      (* idempotent *)
      let r = Wal.replay ~scheme:Coding.Root_split ~mss:3 p in
      Alcotest.(check (list int)) "tids in log order"
        [ 10; 11; 12; 13; 14 ]
        (List.map fst r);
      Alcotest.(check (list string)) "trees byte-identical"
        (List.map Tree.to_string trees)
        (List.map (fun (_, t) -> Tree.to_string t) r);
      (* replay is a pure read: a second replay sees the same records and
         the file bytes are untouched *)
      let bytes0 = read_file (Wal.path p) in
      let r2 = Wal.replay ~scheme:Coding.Root_split ~mss:3 p in
      Alcotest.(check bool) "second replay identical" true (r = r2);
      Alcotest.(check string) "file bytes unchanged" bytes0
        (read_file (Wal.path p));
      (* reopen positions after the last intact record *)
      let w = Wal.open_append ~scheme:Coding.Root_split ~mss:3 p in
      Alcotest.(check int) "reopen counts records" 5 (Wal.records w);
      Wal.append w ~tid:15 [ List.hd trees ];
      Wal.close w;
      Alcotest.(check int) "append after reopen" 6
        (List.length (Wal.replay ~scheme:Coding.Root_split ~mss:3 p));
      (* absent file is an empty log *)
      Alcotest.(check (list (pair int reject))) "absent file" []
        (Wal.replay ~scheme:Coding.Root_split ~mss:3 (p ^ "-none")))

let test_wal_torn_tail () =
  with_prefix "torn" (fun p ->
      let trees = corpus 3 5 in
      let w = Wal.open_append ~scheme:Coding.Interval ~mss:2 p in
      Wal.append w ~tid:0 trees;
      Wal.close w;
      let intact = (Unix.stat (Wal.path p)).Unix.st_size in
      (* a crash mid-append leaves a partial frame: tolerated, not fatal *)
      append_bytes (Wal.path p) "\x40\x00\x00\x00\xde\xad";
      let r = Wal.replay ~scheme:Coding.Interval ~mss:2 p in
      Alcotest.(check int) "replay stops at the torn frame" 3 (List.length r);
      let w = Wal.open_append ~scheme:Coding.Interval ~mss:2 p in
      Alcotest.(check int) "open_append truncates the torn tail" intact
        (Wal.bytes w);
      Alcotest.(check int) "records preserved" 3 (Wal.records w);
      Wal.append w ~tid:3 [ List.hd trees ];
      Wal.close w;
      Alcotest.(check int) "appendable after truncation" 4
        (List.length (Wal.replay ~scheme:Coding.Interval ~mss:2 p));
      (* truncate drops everything but stays a valid (empty) log *)
      let w = Wal.open_append ~scheme:Coding.Interval ~mss:2 p in
      Wal.truncate w;
      Alcotest.(check int) "truncate -> header only" 8 (Wal.bytes w);
      Wal.close w;
      Alcotest.(check int) "empty after truncate" 0
        (List.length (Wal.replay ~scheme:Coding.Interval ~mss:2 p));
      (* a file shorter than the header is a crash artifact, not an error *)
      let oc = open_out_bin (Wal.path p) in
      output_string oc "SIW";
      close_out oc;
      Alcotest.(check int) "short file replays empty" 0
        (List.length (Wal.replay ~scheme:Coding.Interval ~mss:2 p));
      let w = Wal.open_append ~scheme:Coding.Interval ~mss:2 p in
      Alcotest.(check int) "short file rewritten as empty log" 8 (Wal.bytes w);
      Wal.close w)

let test_wal_corruption () =
  with_prefix "corr" (fun p ->
      (* CRC-valid frame whose payload is not a parseable record: that is
         corruption, not a crash artifact *)
      let w = Wal.open_append ~scheme:Coding.Filter ~mss:2 p in
      Wal.close w;
      let payload =
        let buf = Buffer.create 16 in
        Si_subtree.Varint.write buf 0;
        Buffer.add_string buf "this is not a penn tree";
        Buffer.contents buf
      in
      let frame =
        let buf = Buffer.create 32 in
        let u32 v =
          for i = 0 to 3 do
            Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
          done
        in
        u32 (String.length payload);
        u32 (Crc32.string payload);
        Buffer.add_string buf payload;
        Buffer.contents buf
      in
      append_bytes (Wal.path p) frame;
      (match Wal.replay ~scheme:Coding.Filter ~mss:2 p with
      | exception Si_error.Error (Si_error.Corrupt _) -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "unparseable CRC-valid frame must be Corrupt");
      (* header scheme/mss must match the index that replays it *)
      (match Wal.replay ~scheme:Coding.Interval ~mss:2 p with
      | exception Si_error.Error (Si_error.Schema_mismatch _) -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "scheme mismatch must be Schema_mismatch");
      (match Wal.replay ~scheme:Coding.Filter ~mss:3 p with
      | exception Si_error.Error (Si_error.Schema_mismatch _) -> ()
      | _ -> Alcotest.fail "mss mismatch must be Schema_mismatch");
      (* a garbled magic is corruption *)
      let oc = open_out_bin (Wal.path p) in
      output_string oc "NOTWAL\x00\x00extra bytes";
      close_out oc;
      match Wal.replay ~scheme:Coding.Filter ~mss:2 p with
      | exception Si_error.Error (Si_error.Corrupt _) -> ()
      | _ -> Alcotest.fail "bad magic must be Corrupt")

(* ---- insert / replay through the facade -------------------------------- *)

let test_insert_visible_and_replayed () =
  with_prefix "ins" (fun p ->
      let base = corpus 40 17 in
      let extra = corpus 6 99 in
      ignore
        (Si.build ~scheme:Coding.Root_split ~mss:3 ~trees:base ~prefix:p ());
      let si = ok_exn "open" (Si.open_ p) in
      Alcotest.(check int) "nothing pending before insert" 0 (Si.pending si);
      Alcotest.(check int) "insert returns the new total" 46
        (ok_exn "insert" (Si.insert si extra));
      Alcotest.(check int) "pending" 6 (Si.pending si);
      Alcotest.(check bool) "wal grew" true (Si.wal_bytes si > 8);
      (* the delta is live on the inserting handle, and correct *)
      check_oracle "inserting handle" si;
      (* inserted sentences are addressable *)
      Alcotest.(check string) "sentence spans the delta"
        (Tree.to_string (List.hd extra))
        (Tree.to_string (Si.sentence si 40));
      Si.close_wal si;
      (* a fresh open replays the WAL into an identical delta *)
      let si2 = ok_exn "reopen" (Si.open_ p) in
      Alcotest.(check int) "replayed pending" 6 (Si.pending si2);
      check_queries "reopen = inserting handle" si2 si;
      check_oracle "reopened handle" si2;
      (* replay twice: same answers, and the WAL bytes are untouched —
         byte-identical state from byte-identical input *)
      let bytes0 = read_file (Wal.path p) in
      let si3 = ok_exn "reopen twice" (Si.open_ p) in
      Alcotest.(check string) "wal bytes unchanged by replay" bytes0
        (read_file (Wal.path p));
      check_queries "second replay = first" si3 si2;
      (* inserts on a memory-only handle are refused, not misfiled *)
      let mem = Si.build ~scheme:Coding.Root_split ~mss:3 ~trees:base () in
      match Si.insert mem extra with
      | exception Invalid_argument _ -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "insert without a prefix must fail")

let test_checkpoint_merges_and_truncates () =
  with_prefix "ckpt" (fun p ->
      let base = corpus 40 21 in
      let extra = corpus 5 77 in
      ignore
        (Si.build ~scheme:Coding.Interval ~mss:3 ~trees:base ~prefix:p ());
      let si = ok_exn "open" (Si.open_ p) in
      ignore (ok_exn "insert" (Si.insert si extra));
      let before = ok_exn "pre-checkpoint open" (Si.open_ p) in
      Alcotest.(check int) "checkpoint folds the delta" 5
        (ok_exn "checkpoint" (Si.checkpoint si));
      Si.close_wal si;
      let after = ok_exn "post-checkpoint open" (Si.open_ p) in
      Alcotest.(check int) "merged into main" 45
        (Si.stats after).Builder.trees;
      Alcotest.(check int) "nothing pending" 0 (Si.pending after);
      Alcotest.(check int) "wal truncated to header" 8
        (Unix.stat (Wal.path p)).Unix.st_size;
      (* the fold changed representation, never answers *)
      check_queries "checkpointed = delta-serving" after before;
      check_oracle "checkpointed" after;
      (* an empty checkpoint is a no-op *)
      Alcotest.(check int) "empty checkpoint" 0
        (ok_exn "empty checkpoint" (Si.checkpoint after));
      Si.close_wal after)

let test_checkpoint_crash_windows () =
  with_prefix "crash" (fun p ->
      let base = corpus 30 31 in
      let extra = corpus 4 55 in
      ignore
        (Si.build ~scheme:Coding.Root_split ~mss:3 ~trees:base ~prefix:p ());
      Fun.protect ~finally:Failpoint.clear (fun () ->
          (* window 1: crash before the merge — old set + replayable WAL *)
          let si = ok_exn "open" (Si.open_ p) in
          ignore (ok_exn "insert" (Si.insert si extra));
          Si.close_wal si;
          Failpoint.arm_exn "si.checkpoint.merge=fail@1";
          let si = ok_exn "reopen" (Si.open_ p) in
          (match Si.checkpoint si with
          | Error (Si_error.Internal _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
          | Ok _ -> Alcotest.fail "armed merge must abort");
          Failpoint.clear ();
          let r = ok_exn "reopen after aborted merge" (Si.open_ p) in
          Alcotest.(check int) "main untouched" 30 (Si.stats r).Builder.trees;
          Alcotest.(check int) "delta replayed" 4 (Si.pending r);
          check_oracle "aborted merge still serves" r;
          (* window 2: publish succeeded, crash before the WAL truncate —
             replay must skip every record the new main already covers *)
          Failpoint.arm_exn "wal.truncate=fail@1";
          (match Si.checkpoint r with
          | Error (Si_error.Internal _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
          | Ok _ -> Alcotest.fail "armed truncate must abort");
          Failpoint.clear ();
          Si.close_wal r;
          Alcotest.(check bool) "wal survived the aborted truncate" true
            ((Unix.stat (Wal.path p)).Unix.st_size > 8);
          let r2 = ok_exn "reopen after aborted truncate" (Si.open_ p) in
          Alcotest.(check int) "new main published" 34
            (Si.stats r2).Builder.trees;
          Alcotest.(check int) "stale records skipped, not re-applied" 0
            (Si.pending r2);
          check_oracle "post-publish pre-truncate" r2;
          (* a tid gap is corruption, not a skippable artifact *)
          let w = Wal.open_append ~scheme:Coding.Root_split ~mss:3 p in
          Wal.truncate w;
          Wal.append w ~tid:36 [ List.hd extra ];
          Wal.close w;
          match Si.open_ p with
          | Error (Si_error.Corrupt _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
          | Ok _ -> Alcotest.fail "tid gap must refuse to open"))

let test_insert_durable_before_ack () =
  (* the WAL write path fires its failpoints in order: a crash before the
     frame hits the file loses the tree (never acknowledged), a crash
     after the write keeps it — either way the index reopens cleanly *)
  with_prefix "dur" (fun p ->
      let base = corpus 20 41 in
      let extra = corpus 2 43 in
      ignore
        (Si.build ~scheme:Coding.Root_split ~mss:3 ~trees:base ~prefix:p ());
      Fun.protect ~finally:Failpoint.clear (fun () ->
          Failpoint.arm_exn "wal.append.write=fail@1";
          let si = ok_exn "open" (Si.open_ p) in
          (match Si.insert si extra with
          | Error (Si_error.Internal _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
          | Ok _ -> Alcotest.fail "armed append must abort");
          Si.close_wal si;
          Failpoint.clear ();
          let r = ok_exn "reopen" (Si.open_ p) in
          Alcotest.(check int) "unacknowledged insert lost whole" 0
            (Si.pending r);
          check_oracle "clean after aborted append" r;
          (* after the write, before the fsync: the record is in the file
             (the kernel may or may not have persisted it — both outcomes
             are legal, and this file did receive the write) *)
          Failpoint.arm_exn "wal.append.fsync=fail@1";
          let si = ok_exn "open 2" (Si.open_ p) in
          (match Si.insert si [ List.hd extra ] with
          | Error (Si_error.Internal _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
          | Ok _ -> Alcotest.fail "armed fsync must abort");
          Si.close_wal si;
          Failpoint.clear ();
          let r = ok_exn "reopen 2" (Si.open_ p) in
          Alcotest.(check int) "written record replays" 1 (Si.pending r);
          check_oracle "consistent after aborted fsync" r))

(* ---- the differential pin ----------------------------------------------- *)

let containers =
  [
    (Coding.Filter, `Sidx3);
    (Coding.Interval, `Sidx3);
    (Coding.Root_split, `Sidx3);
    (Coding.Filter, `Sidx4);
    (Coding.Interval, `Sidx4);
    (Coding.Root_split, `Sidx4);
  ]

(* Split [l] into consecutive non-empty chunks of the given sizes. *)
let rec chunks sizes l =
  match sizes with
  | [] -> []
  | k :: rest ->
      List.filteri (fun i _ -> i < k) l
      :: chunks rest (List.filteri (fun i _ -> i >= k) l)

(* Random chunk sizes summing to [k], each in [1, k]. *)
let random_split rng k =
  let rec go left =
    if left = 0 then []
    else
      let c = 1 + Random.State.int rng left in
      c :: go (left - c)
  in
  go k

(* Every way of feeding [extra] through the WAL — one batch, one tree per
   call, random splits — answers like a rebuild live, after replay and
   after checkpoint, and the checkpoint publishes the same [.idx] bytes. *)
let prop_incremental_equals_rebuild =
  QCheck.Test.make ~name:"insert-then-query = rebuild-then-query" ~count:5
    QCheck.(triple (int_range 10 40) (int_range 1 8) small_nat)
    (fun (n, k, seed) ->
      List.iter
        (fun (scheme, format) ->
          let tag =
            Printf.sprintf "%s-%s"
              (Coding.scheme_to_string scheme)
              (match format with `Sidx3 -> "heap" | `Sidx4 -> "mapped")
          in
          let base = corpus n (seed + 1) in
          let extra = corpus k (seed + 101) in
          let full = Si.build ~scheme ~mss:3 ~trees:(base @ extra) () in
          let want =
            List.map (fun q -> (q, ok_exn "rebuild" (Si.query full q))) query_strings
          in
          let agree what si =
            List.iter
              (fun (q, want) ->
                let got = ok_exn what (Si.query si q) in
                if got <> want then
                  QCheck.Test.fail_reportf
                    "%s: %s: %s diverges from rebuild (%d vs %d)" tag q what
                    (List.length got) (List.length want))
              want
          in
          (* insert [extra] in calls of [sizes] trees, check every view,
             and return the [.idx] the checkpoint publishes *)
          let checkpointed_idx sizes =
            with_prefix "diff" (fun p ->
                ignore (Si.build ~scheme ~mss:3 ~format ~trees:base ~prefix:p ());
                let si = ok_exn "open" (Si.open_ p) in
                let total =
                  List.fold_left
                    (fun _ call -> ok_exn "insert" (Si.insert si call))
                    0 (chunks sizes extra)
                in
                if total <> n + k then
                  QCheck.Test.fail_reportf "%s: insert total wrong" tag;
                agree "live insert" si;
                Si.close_wal si;
                agree "WAL replay" (ok_exn "reopen" (Si.open_ p));
                ignore (ok_exn "checkpoint" (Si.checkpoint si));
                Si.close_wal si;
                agree "checkpoint" (ok_exn "reopen" (Si.open_ p));
                read_file (p ^ ".idx"))
          in
          let batch = checkpointed_idx [ k ] in
          List.iter
            (fun (how, sizes) ->
              if checkpointed_idx sizes <> batch then
                QCheck.Test.fail_reportf
                  "%s: .idx after %s inserts differs from one batch" tag how)
            [
              ("one-at-a-time", List.init k (fun _ -> 1));
              ("randomly split", random_split (Random.State.make [| seed |]) k);
            ])
        containers;
      true)

(* A reader domain querying while the writer inserts one tree per call
   sees, in every answer, exactly the corpus base + the first j inserted
   trees for some j, and j never decreases: each insert publishes one
   whole snapshot, and a reader never sees a later one and then an
   earlier one. *)
let test_snapshot_isolation () =
  List.iter
    (fun (scheme, format) ->
      with_prefix "iso" (fun p ->
          let base = corpus 30 61 and extra = corpus 24 62 in
          let n = List.length base and k = List.length extra in
          ignore (Si.build ~scheme ~mss:3 ~format ~trees:base ~prefix:p ());
          let si = ok_exn "open" (Si.open_ p) in
          let docs = Array.of_list (List.map Annotated.of_tree (base @ extra)) in
          let queries = Array.of_list query_strings in
          (* want.(j).(i): query i over base + the first j inserted trees *)
          let want =
            Array.init (k + 1) (fun j ->
                Array.map
                  (fun q ->
                    Si_query.Matcher.corpus_roots (Array.sub docs 0 (n + j))
                      (Si_query.Parser.parse_exn q))
                  queries)
          in
          let writer_done = Atomic.make false in
          let reader =
            Domain.spawn (fun () ->
                let j = ref 0 and answers = ref 0 and last_round = ref false in
                while not !last_round do
                  (* a round begun after the writer finished sees every tree *)
                  last_round := Atomic.get writer_done;
                  Array.iteri
                    (fun i q ->
                      let got = ok_exn "reader query" (Si.query si q) in
                      let rec first_from x =
                        if x > k then
                          Alcotest.failf
                            "%s: answer (%d matches) is no snapshot at or after                              %d inserts"
                            q (List.length got) !j
                        else if want.(x).(i) = got then x
                        else first_from (x + 1)
                      in
                      j := first_from !j;
                      incr answers)
                    queries
                done;
                (!j, !answers))
          in
          List.iter (fun tree -> ignore (ok_exn "insert" (Si.insert si [ tree ]))) extra;
          Atomic.set writer_done true;
          let j, answers = Domain.join reader in
          Si.close_wal si;
          Alcotest.(check bool) "reader answered" true (answers > 0);
          Alcotest.(check int) "last round sees every insert" k j))
    [ (Coding.Root_split, `Sidx4); (Coding.Filter, `Sidx3) ]

let suite =
  [
    Alcotest.test_case "wal: append/replay roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: torn tail tolerated and truncated" `Quick
      test_wal_torn_tail;
    Alcotest.test_case "wal: corruption and schema mismatch refused" `Quick
      test_wal_corruption;
    Alcotest.test_case "insert: live delta, replayed delta, oracle" `Quick
      test_insert_visible_and_replayed;
    Alcotest.test_case "checkpoint: merge + truncate preserves answers" `Quick
      test_checkpoint_merges_and_truncates;
    Alcotest.test_case "checkpoint: every crash window recovers" `Quick
      test_checkpoint_crash_windows;
    Alcotest.test_case "insert: durability windows around the fsync" `Quick
      test_insert_durable_before_ack;
    qcheck prop_incremental_equals_rebuild;
    Alcotest.test_case "insert: readers see whole snapshots, in order" `Quick
      test_snapshot_isolation;
  ]
