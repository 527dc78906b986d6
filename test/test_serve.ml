(* Serving-path tests: the bounded decode cache, the block-skip streaming
   cursor, the streaming evaluators' differential against the legacy
   full-decode path, the parallel batch evaluator, and blocked postings
   through an SIDX4 file. *)

open Si_treebank
open Si_core

let qcheck = QCheck_alcotest.to_alcotest

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let save_exn b p = ok_exn "save" (Builder.save b p)
(* outside {!Si} the caller supplies the corpus that resolves SIDX4
   interval postings *)
let load_over d p =
  let b = ok_exn "load" (Builder.load p) in
  Builder.set_resolve b (fun tid pre ->
      let doc = d.(tid) in
      { Coding.pre; post = doc.Annotated.post.(pre); level = doc.Annotated.level.(pre) });
  b

let corpus n seed = Si_grammar.Generator.corpus ~seed ~n ()
let docs trees = Array.of_list (List.map Annotated.of_tree trees)

let with_temp f =
  let path = Filename.temp_file "si_serve" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let schemes = [ Coding.Filter; Coding.Interval; Coding.Root_split ]

let query_strings =
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

let queries = List.map Si_query.Parser.parse_exn query_strings

(* ---- the bounded LRU cache --------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~budget:100 ~cost:String.length () in
  let calls = ref 0 in
  let get k v = Cache.find_or_add c k (fun () -> incr calls; v) in
  Alcotest.(check string) "first get produces" "aaaa" (get 1 "aaaa");
  Alcotest.(check string) "second get cached" "aaaa" (get 1 "ignored");
  Alcotest.(check int) "producer ran once" 1 !calls;
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "resident" 4 s.Cache.resident;
  Alcotest.(check int) "entries" 1 s.Cache.entries;
  Alcotest.(check int) "budget" 100 s.Cache.budget

let test_cache_eviction_lru () =
  (* budget 8, entries cost 4: the third insert evicts the coldest *)
  let c = Cache.create ~budget:8 ~cost:String.length () in
  let get k = Cache.find_or_add c k (fun () -> String.make 4 (Char.chr (65 + k))) in
  ignore (get 0);
  ignore (get 1);
  ignore (get 0);
  (* 0 is now hottest *)
  ignore (get 2);
  (* must evict 1, the LRU — not 0 *)
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "resident stays within budget" 8 s.Cache.resident;
  let before = (Cache.stats c).Cache.hits in
  ignore (get 0);
  Alcotest.(check int) "0 survived (hit)" (before + 1) (Cache.stats c).Cache.hits;
  ignore (get 1);
  Alcotest.(check int) "1 was evicted (miss)" 4 (Cache.stats c).Cache.misses

let test_cache_over_budget () =
  let c = Cache.create ~budget:10 ~cost:String.length () in
  let v = Cache.find_or_add c 0 (fun () -> String.make 20 'x') in
  Alcotest.(check int) "value still returned" 20 (String.length v);
  let s = Cache.stats c in
  Alcotest.(check int) "not retained" 0 s.Cache.entries;
  Alcotest.(check int) "resident empty" 0 s.Cache.resident;
  (* a fetch of the same key is a miss again *)
  ignore (Cache.find_or_add c 0 (fun () -> "y"));
  Alcotest.(check int) "misses" 2 (Cache.stats c).Cache.misses

let test_cache_oversized_spares_rest () =
  (* an entry bigger than the whole budget is admitted at the cold end,
     served once, and reclaimed by the same eviction sweep — exactly one
     eviction, accounting back to where it was, and the resident entries
     untouched (the old path would have been a miss storm or a panic) *)
  let c = Cache.create ~budget:10 ~cost:String.length () in
  ignore (Cache.find_or_add c 1 (fun () -> "aaaa"));
  ignore (Cache.find_or_add c 2 (fun () -> "bbbb"));
  let s0 = Cache.stats c in
  Alcotest.(check int) "resident before" 8 s0.Cache.resident;
  let v = Cache.find_or_add c 3 (fun () -> String.make 25 'x') in
  Alcotest.(check int) "oversized value served" 25 (String.length v);
  let s = Cache.stats c in
  Alcotest.(check int) "exactly one eviction (itself)" 1 s.Cache.evictions;
  Alcotest.(check int) "accounting exact" 8 s.Cache.resident;
  Alcotest.(check int) "small entries survive" 2 s.Cache.entries;
  ignore (Cache.find_or_add c 1 (fun () -> Alcotest.fail "1 was dumped"));
  ignore (Cache.find_or_add c 2 (fun () -> Alcotest.fail "2 was dumped"));
  Alcotest.(check int) "survivors hit" 2 (Cache.stats c).Cache.hits

let test_cache_produce_exception () =
  let c = Cache.create ~budget:10 ~cost:String.length () in
  (match Cache.find_or_add c 0 (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "nothing inserted" 0 (Cache.stats c).Cache.entries

(* ---- the streaming cursor over forced-small blocks --------------------- *)

let posting_tids p = List.init (Coding.entries p) (Coding.tid_at p)

let biggest_key b =
  let best = ref None in
  Builder.iter b (fun key p ->
      let n = Coding.entries p in
      match !best with
      | Some (_, m) when m >= n -> ()
      | _ -> best := Some ((key, p), n));
  match !best with
  | Some ((key, p), _) -> (key, p)
  | None -> Alcotest.fail "empty index"

let check_cursor_walk b =
  let key, posting = biggest_key b in
  let tids = posting_tids posting in
  Alcotest.(check bool) "posting spans multiple blocks" true
    (List.length tids > 8);
  (* sequential walk reproduces the full tid list *)
  let cur = Option.get (Cursor.create b key) in
  let walked = ref [] in
  while not (Cursor.exhausted cur) do
    walked := Option.get (Cursor.peek cur) :: !walked;
    Cursor.advance cur
  done;
  Alcotest.(check (list int)) "walk = full decode" tids (List.rev !walked);
  (* seek to every present tid lands exactly on it *)
  let cache = Cursor.create_cache () in
  List.iter
    (fun t ->
      let cur = Option.get (Cursor.create ~cache b key) in
      Cursor.seek cur t;
      Alcotest.(check (option int)) "seek lands on tid" (Some t) (Cursor.peek cur))
    tids;
  (* seek to an absent tid lands on the successor; past the end exhausts *)
  let arr = Array.of_list tids in
  let succ_of t =
    let rec go i = if i >= Array.length arr then None
      else if arr.(i) >= t then Some arr.(i) else go (i + 1) in
    go 0
  in
  List.iter
    (fun t ->
      let cur = Option.get (Cursor.create ~cache b key) in
      Cursor.seek cur (t + 1);
      Alcotest.(check (option int)) "seek to gap" (succ_of (t + 1)) (Cursor.peek cur))
    tids;
  let cur = Option.get (Cursor.create ~cache b key) in
  Cursor.seek cur (List.fold_left max 0 tids + 1);
  Alcotest.(check bool) "seek past end exhausts" true (Cursor.exhausted cur);
  (* monotone interleaved seeks on one cursor (the join access pattern) *)
  let cur = Option.get (Cursor.create ~cache b key) in
  List.iter
    (fun t ->
      Cursor.seek cur t;
      Alcotest.(check (option int)) "monotone reseek" (Some t) (Cursor.peek cur))
    tids;
  Alcotest.(check bool) "cursor absent key" true (Cursor.create b "\xff\xff" = None)

(* a blocked build, and the same corpus grown by {!Builder.append}, whose
   unpacked postings present to the cursor as one flat block *)
let test_cursor_walk_and_seek () =
  let d = docs (corpus 120 73) in
  check_cursor_walk (Builder.build ~block_entries:4 ~scheme:Coding.Filter ~mss:2 d);
  check_cursor_walk
    (Builder.append
       (Builder.build ~scheme:Coding.Filter ~mss:2 (Array.sub d 0 50))
       (Array.sub d 50 70))

(* ---- streaming differential: blocked + cached = full decode = oracle --- *)

let check_stream_differential ~seed ~n ~mss =
  let d = docs (corpus n seed) in
  let oracle = List.map (fun q -> (q, Si_query.Matcher.corpus_roots d q)) queries in
  List.iter
    (fun scheme ->
      (* block_entries=4 forces real multi-block postings on a small corpus;
         the file round trip makes the cursors walk mmap-shaped file bytes *)
      let built = Builder.build ~block_entries:4 ~scheme ~mss d in
      let index = with_temp (fun p -> save_exn built p; load_over d p) in
      let cache = Cursor.create_cache () in
      let nocache = Cursor.create_cache ~budget:0 () in
      List.iter
        (fun (q, want) ->
          let ctx =
            Printf.sprintf "%s/%s mss=%d" (Coding.scheme_to_string scheme)
              (Si_query.Ast.to_string q) mss
          in
          let legacy = Eval.run_exn ~index ~corpus:(Corpus.of_array d) q in
          let cold = Eval.run_exn ~index ~corpus:(Corpus.of_array d) ~cache q in
          let warm = Eval.run_exn ~index ~corpus:(Corpus.of_array d) ~cache q in
          let evicting = Eval.run_exn ~index ~corpus:(Corpus.of_array d) ~cache:nocache q in
          if legacy <> want then
            QCheck.Test.fail_reportf "legacy path diverges from oracle: %s" ctx;
          if cold <> want then
            QCheck.Test.fail_reportf "streaming (cold cache) diverges: %s" ctx;
          if warm <> want then
            QCheck.Test.fail_reportf "streaming (warm cache) diverges: %s" ctx;
          if evicting <> want then
            QCheck.Test.fail_reportf "streaming (zero budget) diverges: %s" ctx)
        oracle)
    schemes

let prop_stream_differential =
  QCheck.Test.make
    ~name:"block-skip + cache streaming = full decode = oracle (3 codings, mss 1-3)"
    ~count:5
    QCheck.(pair (int_range 1 3) small_nat)
    (fun (mss, seed) ->
      check_stream_differential ~seed:(seed + 307) ~n:50 ~mss;
      true)

let test_stream_differential_fixed () =
  check_stream_differential ~seed:42 ~n:120 ~mss:3;
  check_stream_differential ~seed:7 ~n:120 ~mss:1

(* ---- parallel batch over one shared handle ----------------------------- *)

let test_batch_parallel () =
  let trees = corpus 150 61 in
  List.iter
    (fun scheme ->
      let si = Si.build ~scheme ~mss:2 ~trees () in
      let qarr = Array.init 60 (fun i -> List.nth query_strings (i mod 10)) in
      let seq =
        Array.map (fun s -> ok_exn ("seq " ^ s) (Si.query si s)) qarr
      in
      List.iter
        (fun domains ->
          let batch = Si.query_batch ~domains ~cache_budget:(1 lsl 16) si qarr in
          Array.iteri
            (fun i ans ->
              let o = ok_exn "batch answer" ans in
              Alcotest.(check bool)
                (Printf.sprintf "batch d=%d q=%d not truncated" domains i)
                false o.Limits.truncated;
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "batch d=%d q=%d" domains i)
                seq.(i) o.Limits.matches)
            batch.Si.answers;
          Alcotest.(check int) "one latency per query" (Array.length qarr)
            (Array.length batch.Si.latencies_ns);
          Array.iter
            (fun l -> Alcotest.(check bool) "latency non-negative" true (l >= 0.))
            batch.Si.latencies_ns;
          let cs = batch.Si.cache in
          Alcotest.(check bool) "cache counters populated" true
            (cs.Cache.hits + cs.Cache.misses > 0))
        [ 1; 2; 4 ])
    schemes;
  let si = Si.build ~scheme:Coding.Filter ~mss:1 ~trees:(corpus 5 3) () in
  match Si.query_batch ~domains:0 si [| "S(NP)" |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains=0 accepted"

let test_batch_bad_query_slot () =
  (* one malformed query in a batch poisons only its own slot *)
  let si = Si.build ~scheme:Coding.Root_split ~mss:2 ~trees:(corpus 30 83) () in
  let batch = Si.query_batch ~domains:2 si [| "S(NP)(VP)"; "S((NP)"; "NP(DT)(NN)" |] in
  (match batch.Si.answers.(1) with
  | Error (Si_error.Bad_query _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
  | Ok _ -> Alcotest.fail "syntax error accepted");
  ignore (ok_exn "slot 0" batch.Si.answers.(0));
  ignore (ok_exn "slot 2" batch.Si.answers.(2))

(* ---- blocked postings through the SIDX4 file --------------------------- *)

let check_same_postings what a b =
  Alcotest.(check int) (what ^ ": keys") (Builder.n_keys a) (Builder.n_keys b);
  Builder.iter a (fun key p ->
      match Builder.find_exn b key with
      | Some p' -> Alcotest.(check bool) (what ^ ": posting equal") true (p = p')
      | None -> Alcotest.failf "%s: key lost" what)

let test_v3_blocked_file_roundtrip () =
  let d = docs (corpus 150 71) in
  List.iter
    (fun scheme ->
      let b = Builder.build ~block_entries:4 ~scheme ~mss:2 d in
      let b' = with_temp (fun p -> save_exn b p; load_over d p) in
      (* the saved file kept the forced blocking: some key spans > 1 block
         (interval postings re-encoded as v4 keep the block size) *)
      Alcotest.(check bool) "multi-block keys present" true
        (List.exists (fun (nb, _) -> nb > 1) (Builder.block_histogram b'));
      check_same_postings "blocked roundtrip" b b';
      let cache = Cursor.create_cache () in
      List.iter
        (fun q ->
          Alcotest.(check (list (pair int int)))
            ("mapped streaming: " ^ Si_query.Ast.to_string q)
            (Eval.run_exn ~index:b ~corpus:(Corpus.of_array d) q)
            (Eval.run_exn ~index:b' ~corpus:(Corpus.of_array d) ~cache q))
        queries)
    schemes

(* ---- v3 codec: flat/blocked threshold and layout ------------------------ *)

let test_pack_v3_layout () =
  let posting = Coding.Filter_p (Array.init 23 (fun i -> 3 * i)) in
  (* blocked: 23 entries at 4/block = 6 blocks *)
  let buf = Buffer.create 64 in
  Coding.pack_v3 ~block_entries:4 buf posting;
  let s = Buffer.contents buf in
  let count, blocks = Coding.v3_layout Coding.Filter (Coding.str s) 0 in
  Alcotest.(check int) "count" 23 count;
  Alcotest.(check int) "nblocks" 6 (Array.length blocks);
  Array.iteri
    (fun i b ->
      Alcotest.(check int) (Printf.sprintf "block %d first tid" i)
        (3 * 4 * i) b.Coding.first_tid;
      Alcotest.(check int) (Printf.sprintf "block %d entries" i)
        (if i = 5 then 3 else 4) b.Coding.bentries;
      let bp = Coding.unpack_block Coding.Filter ~key_size:1 (Coding.str s) b in
      Alcotest.(check int) "block decodes its entries"
        b.Coding.bentries (Coding.entries bp))
    blocks;
  let p', off = Coding.unpack_v3 Coding.Filter ~key_size:1 (Coding.str s) 0 in
  Alcotest.(check bool) "unpack_v3 = posting" true (p' = posting);
  Alcotest.(check int) "consumed all" (String.length s) off;
  (* at or under the threshold the body stays flat: one pseudo-block *)
  let buf = Buffer.create 64 in
  Coding.pack_v3 ~block_entries:32 buf posting;
  let s = Buffer.contents buf in
  let count, blocks = Coding.v3_layout Coding.Filter (Coding.str s) 0 in
  Alcotest.(check int) "flat count" 23 count;
  Alcotest.(check int) "flat = single block" 1 (Array.length blocks);
  let p', _ = Coding.unpack_v3 Coding.Filter ~key_size:1 (Coding.str s) 0 in
  Alcotest.(check bool) "flat unpack_v3 = posting" true (p' = posting)

let suite =
  [
    Alcotest.test_case "cache hit/miss accounting" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction order" `Quick test_cache_eviction_lru;
    Alcotest.test_case "cache oversized entry spares the rest" `Quick
      test_cache_oversized_spares_rest;
    Alcotest.test_case "cache over-budget value uncached" `Quick
      test_cache_over_budget;
    Alcotest.test_case "cache producer exception" `Quick
      test_cache_produce_exception;
    Alcotest.test_case "cursor walk and seek (blocked)" `Quick
      test_cursor_walk_and_seek;
    qcheck prop_stream_differential;
    Alcotest.test_case "streaming differential (fixed)" `Slow
      test_stream_differential_fixed;
    Alcotest.test_case "parallel batch = sequential" `Slow test_batch_parallel;
    Alcotest.test_case "batch isolates bad query" `Quick test_batch_bad_query_slot;
    Alcotest.test_case "SIDX4 blocked file roundtrip" `Quick
      test_v3_blocked_file_roundtrip;
    Alcotest.test_case "pack_v3 layout (flat/blocked)" `Quick test_pack_v3_layout;
  ]
