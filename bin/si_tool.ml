(* si_tool — the subtree-index pipeline from the command line:
   gen -> build -> query / stats. *)

open Cmdliner

let scheme_conv =
  let parse s = Si_core.Coding.scheme_of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf s = Format.pp_print_string ppf (Si_core.Coding.scheme_to_string s) in
  Arg.conv (parse, print)

(* Every Si_error variant maps to a distinct message and exit code
   (README "failure modes"): 1 oracle mismatch, 2 bad query, 3 corrupt
   index, 4 i/o error, 5 schema mismatch, 6 timeout, 7 resource budget
   exhausted, 8 internal fault. *)
let fail_si e =
  Printf.eprintf "si_tool: %s\n" (Si_core.Si_error.to_string e);
  exit (Si_core.Si_error.exit_code e)

let ok_or_fail = function Ok v -> v | Error e -> fail_si e

(* ---- resource limits (query / serve) ------------------------------------ *)

let limits_of deadline_ms max_steps max_decoded_bytes max_results partial =
  Si_core.Limits.v
    ?deadline_ns:(Option.map (fun ms -> int_of_float (ms *. 1e6)) deadline_ms)
    ?max_decoded_bytes ?max_join_steps:max_steps ?max_results ~partial ()

let limits_term =
  let deadline_ms =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-query wall deadline in milliseconds (monotonic clock); \
                 exceeding it is a timeout (exit 6) unless $(b,--partial).")
  in
  let max_steps =
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N"
           ~doc:"Per-query budget on join/merge/validation steps; \
                 exceeding it exhausts the resource budget (exit 7) unless \
                 $(b,--partial).")
  in
  let max_decoded_bytes =
    Arg.(value & opt (some int) None & info [ "max-decoded-bytes" ] ~docv:"BYTES"
           ~doc:"Per-query budget on decoded posting bytes (cache hits are \
                 free); exceeding it exhausts the resource budget (exit 7) \
                 unless $(b,--partial).")
  in
  let max_results =
    Arg.(value & opt (some int) None & info [ "max-results" ] ~docv:"N"
           ~doc:"Keep at most N matches; a capped answer is reported as \
                 truncated, never as an error.")
  in
  let partial =
    Arg.(value & flag & info [ "partial" ]
           ~doc:"Degrade deadline/budget overruns to a truncated result \
                 (the matches verified so far) instead of an error.")
  in
  Term.(const limits_of $ deadline_ms $ max_steps $ max_decoded_bytes
        $ max_results $ partial)

(* ---- gen --------------------------------------------------------------- *)

let gen n seed output =
  let trees = Si_grammar.Generator.corpus ~seed ~n () in
  (match output with
  | Some path -> Si_treebank.Penn.write_file path trees
  | None ->
      List.iter (fun t -> print_endline (Si_treebank.Tree.to_string t)) trees);
  let (`Avg avg), (`Max mx), (`Nodes nodes) =
    Si_grammar.Generator.branching_stats trees
  in
  Printf.eprintf "generated %d trees, %d nodes (avg branching %.2f, max %d)\n" n
    nodes avg mx

let gen_cmd =
  let n =
    Arg.(value & opt int 1000 & info [ "n"; "sentences" ] ~docv:"N" ~doc:"Number of parse trees.")
  in
  let seed =
    Arg.(value & opt int 2012 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output corpus file (Penn format, one tree per line); stdout if omitted.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a seeded PCFG corpus of parse trees.")
    Term.(const gen $ n $ seed $ output)

(* ---- build ------------------------------------------------------------- *)

(* SIDX4 is the only container; the flag survives for scripts that name
   it, and refuses anything else *)
let format_conv =
  let parse = function
    | "sidx4" -> Ok ()
    | s -> Error (`Msg (Printf.sprintf "unknown format %S (only sidx4 is written)" s))
  in
  Arg.conv (parse, fun ppf () -> Format.pp_print_string ppf "sidx4")

let build corpus prefix scheme mss domains shards () failpoints =
  if domains < 1 then begin
    Printf.eprintf "si_tool: --domains must be >= 1 (got %d)\n" domains;
    exit 2
  end;
  if shards < 1 then begin
    Printf.eprintf "si_tool: --shards must be >= 1 (got %d)\n" shards;
    exit 2
  end;
  (match failpoints with
  | None -> ()
  | Some spec -> (
      match Si_core.Failpoint.arm spec with
      | Ok () -> ()
      | Error what ->
          Printf.eprintf "si_tool: bad --failpoints spec: %s\n" what;
          exit 2));
  let trees =
    try Si_treebank.Penn.read_file corpus with
    | Sys_error what -> fail_si (Si_core.Si_error.Io { path = corpus; what })
    | Failure what ->
        fail_si (Si_core.Si_error.Corrupt { path = corpus; offset = 0; what })
  in
  let t0 = Unix.gettimeofday () in
  if shards = 1 then begin
    let si =
      try Si_core.Si.build ~domains ~scheme ~mss ~trees ~prefix ()
      with Si_core.Si_error.Error e -> fail_si e
    in
    let dt = Unix.gettimeofday () -. t0 in
    let s = Si_core.Si.stats si in
    Printf.printf
      "built sidx4 %s index: mss=%d domains=%d trees=%d nodes=%d keys=%d postings=%d idx_bytes=%d (%.2fs)\n"
      (Si_core.Coding.scheme_to_string scheme)
      mss domains s.Si_core.Builder.trees s.Si_core.Builder.nodes
      s.Si_core.Builder.keys s.Si_core.Builder.postings s.Si_core.Builder.bytes
      dt
  end
  else begin
    let sh =
      match
        Si_core.Si.build_sharded ~domains ~shards ~scheme ~mss ~trees
          prefix
      with
      | r -> ok_or_fail r
      | exception Si_core.Si_error.Error e -> fail_si e
      | exception Sys_error what ->
          fail_si (Si_core.Si_error.Io { path = prefix; what })
    in
    let dt = Unix.gettimeofday () -. t0 in
    let hs = Si_core.Si.shard_handles sh in
    let agg f =
      Array.fold_left (fun acc si -> acc + f (Si_core.Si.stats si)) 0 hs
    in
    Printf.printf
      "built sharded sidx4 %s index: shards=%d mss=%d trees=%d nodes=%d keys=%d \
       postings=%d idx_bytes=%d (%.2fs)\n"
      (Si_core.Coding.scheme_to_string scheme)
      shards mss
      (agg (fun s -> s.Si_core.Builder.trees))
      (agg (fun s -> s.Si_core.Builder.nodes))
      (agg (fun s -> s.Si_core.Builder.keys))
      (agg (fun s -> s.Si_core.Builder.postings))
      (agg (fun s -> s.Si_core.Builder.bytes))
      dt;
    Array.iteri
      (fun i si ->
        let s = Si_core.Si.stats si in
        Printf.printf "  shard %d: trees=%d keys=%d postings=%d idx_bytes=%d\n"
          i s.Si_core.Builder.trees s.Si_core.Builder.keys
          s.Si_core.Builder.postings s.Si_core.Builder.bytes)
      hs
  end

let corpus_arg =
  Arg.(required & opt (some file) None & info [ "corpus" ] ~docv:"FILE" ~doc:"Corpus file from $(b,gen).")

let prefix_arg =
  Arg.(value & opt string "ix" & info [ "prefix" ] ~docv:"PREFIX"
         ~doc:"Index file prefix (writes/reads PREFIX.idx, .trees, .labels, .meta, \
               and PREFIX.wal once trees are inserted).")

let build_cmd =
  let scheme =
    Arg.(value & opt scheme_conv Si_core.Coding.Root_split & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"Posting coding: filter, interval or root-split.")
  in
  let mss =
    Arg.(value & opt int 3 & info [ "mss" ] ~docv:"MSS" ~doc:"Maximum subtree size of index keys.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Shard construction across N OCaml domains (output is \
                 identical to a sequential build).")
  in
  let format =
    Arg.(value & opt format_conv () & info [ "format" ] ~docv:"FMT"
           ~doc:"On-disk container; only $(b,sidx4) (mmap-resident, O(1) \
                 open) is accepted.")
  in
  let shards =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Split the corpus into N per-shard indexes \
                 (PREFIX.shard0 .. PREFIX.shardN-1 plus a PREFIX.shards \
                 manifest); the deterministic router assigns every tree \
                 id to its shard and queries fan out / merge over the \
                 set.  Per-shard builds run in parallel on the worker \
                 pool.")
  in
  let failpoints =
    Arg.(value & opt (some string) None & info [ "failpoints" ] ~docv:"SPEC"
           ~doc:"Arm fault-injection points for this run (also readable \
                 from \\$SI_FAILPOINTS); see $(b,si_tool failpoints) for \
                 the grammar and the known points.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a subtree index over a corpus.")
    Term.(const build $ corpus_arg $ prefix_arg $ scheme $ mss $ domains
          $ shards $ format $ failpoints)

(* ---- query ------------------------------------------------------------- *)

(* one query per line; blank lines and #-comments skipped *)
let read_queries path =
  let lines =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    with Sys_error what -> fail_si (Si_core.Si_error.Io { path; what })
  in
  lines
  |> List.filter (fun l -> String.trim l <> "" && not (String.length l > 0 && l.[0] = '#'))
  |> Array.of_list

let parse_query qstr =
  match Si_query.Parser.parse qstr with
  | Ok q -> q
  | Error e -> fail_si (Si_core.Si_error.Bad_query e)

(* ---- handle dispatch: every verb below serves "a prefix", sharded
   (PREFIX.shards manifest) or not -------------------------------------- *)

let open_any_or_fail ?cache_budget prefix =
  match Si_core.Si.open_any ?cache_budget prefix with
  | r -> ok_or_fail r
  | exception Sys_error what ->
      fail_si (Si_core.Si_error.Io { path = prefix; what })

let query_outcome_any ~limits h qstr =
  match h with
  | Si_core.Si.Single si -> Si_core.Si.query_outcome ~limits si qstr
  | Si_core.Si.Sharded sh ->
      Result.map
        (fun so -> so.Si_core.Si.so_outcome)
        (Si_core.Si.query_outcome_sharded ~limits sh qstr)

let oracle_any h q =
  match h with
  | Si_core.Si.Single si -> Si_core.Si.oracle si q
  | Si_core.Si.Sharded sh -> Si_core.Si.oracle_sharded sh q

let sentence_any h tid =
  match h with
  | Si_core.Si.Single si -> Si_core.Si.sentence si tid
  | Si_core.Si.Sharded sh -> Si_core.Si.sentence_sharded sh tid

(* summed over the member shards for a sharded handle *)
let cache_stats_any h =
  match h with
  | Si_core.Si.Single si -> Si_core.Si.cache_stats si
  | Si_core.Si.Sharded sh ->
      Array.fold_left
        (fun (acc : Si_core.Cache.stats) si ->
          let c = Si_core.Si.cache_stats si in
          {
            acc with
            Si_core.Cache.hits = acc.Si_core.Cache.hits + c.Si_core.Cache.hits;
            misses = acc.Si_core.Cache.misses + c.Si_core.Cache.misses;
            evictions = acc.Si_core.Cache.evictions + c.Si_core.Cache.evictions;
            resident = acc.Si_core.Cache.resident + c.Si_core.Cache.resident;
            entries = acc.Si_core.Cache.entries + c.Si_core.Cache.entries;
          })
        (Si_core.Cache.zero_stats 0)
        (Si_core.Si.shard_handles sh)

(* evaluate one query against an open handle, with the optional oracle
   cross-check (skipped for truncated answers — a degraded prefix cannot
   match the full oracle set); returns the outcome *)
let eval_checked h qstr ~limits ~check_oracle =
  let o = ok_or_fail (query_outcome_any ~limits h qstr) in
  if check_oracle then begin
    if o.Si_core.Limits.truncated then
      Printf.eprintf "oracle check skipped (%s): result truncated by limits\n"
        qstr
    else begin
      let want = oracle_any h (parse_query qstr) in
      if o.Si_core.Limits.matches <> want then begin
        Printf.eprintf "oracle MISMATCH: index %d matches, oracle %d\n"
          (List.length o.Si_core.Limits.matches)
          (List.length want);
        exit 1
      end
    end
  end;
  o

let query prefix qstr queries_file sentences check_oracle limits =
  let h = open_any_or_fail prefix in
  match (qstr, queries_file) with
  | None, None ->
      Printf.eprintf "si_tool: query needs a QUERY argument or --queries FILE\n";
      exit 2
  | Some _, Some _ ->
      Printf.eprintf "si_tool: pass either a QUERY argument or --queries, not both\n";
      exit 2
  | Some qstr, None ->
      let o = eval_checked h qstr ~limits ~check_oracle in
      let matches = o.Si_core.Limits.matches in
      Printf.printf "%d matches%s\n" (List.length matches)
        (if o.Si_core.Limits.truncated then " (truncated)" else "");
      if sentences then
        List.iter
          (fun (tid, node) ->
            let t = sentence_any h tid in
            Printf.printf "%d:%d %s\n" tid node (Si_treebank.Tree.to_string t))
          matches;
      if check_oracle && not o.Si_core.Limits.truncated then
        print_endline "oracle: OK"
  | None, Some file ->
      (* batch: one open, N evaluations over the handle's shared cache *)
      let qs = read_queries file in
      let t0 = Si_core.Monotonic.now_ns () in
      let total = ref 0 in
      let truncated = ref 0 in
      Array.iter
        (fun qstr ->
          let o = eval_checked h qstr ~limits ~check_oracle in
          let n = List.length o.Si_core.Limits.matches in
          total := !total + n;
          if o.Si_core.Limits.truncated then begin
            incr truncated;
            Printf.printf "%s\t%d\ttruncated\n" qstr n
          end
          else Printf.printf "%s\t%d\n" qstr n)
        qs;
      let dt = Si_core.Monotonic.elapsed_s t0 in
      let cs = cache_stats_any h in
      Printf.eprintf
        "evaluated %d queries (%d matches%s) in %.3fs over one open; cache \
         hits=%d misses=%d evictions=%d%s\n"
        (Array.length qs) !total
        (if !truncated > 0 then Printf.sprintf ", %d truncated" !truncated
         else "")
        dt cs.Si_core.Cache.hits cs.Si_core.Cache.misses
        cs.Si_core.Cache.evictions
        (if check_oracle then "; oracle: OK" else "")

let query_cmd =
  let qstr =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Query, e.g. 'S(NP(DT)(NN))(VP)'; use (//q) for descendant edges.")
  in
  let queries_file =
    Arg.(value & opt (some file) None & info [ "queries" ] ~docv:"FILE"
           ~doc:"Evaluate every query in FILE (one per line, # comments) \
                 against a single index open instead of paying one open per \
                 invocation.")
  in
  let sentences =
    Arg.(value & flag & info [ "sentences" ] ~doc:"Print each matched tree.")
  in
  let check_oracle =
    Arg.(value & flag & info [ "check-oracle" ]
           ~doc:"Also run the brute-force matcher and exit non-zero on mismatch.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate one query or a query file against a built index.")
    Term.(const query $ prefix_arg $ qstr $ queries_file $ sentences
          $ check_oracle $ limits_term)

(* ---- insert / checkpoint ------------------------------------------------ *)

let arm_failpoints = function
  | None -> ()
  | Some spec -> (
      match Si_core.Failpoint.arm spec with
      | Ok () -> ()
      | Error what ->
          Printf.eprintf "si_tool: bad --failpoints spec: %s\n" what;
          exit 2)

let failpoints_arg =
  Arg.(value & opt (some string) None & info [ "failpoints" ] ~docv:"SPEC"
         ~doc:"Arm fault-injection points for this run (also readable from \
               \\$SI_FAILPOINTS); see $(b,si_tool failpoints) for the \
               grammar and the known points.")

let insert prefix corpus tree_args failpoints =
  arm_failpoints failpoints;
  let from_file =
    match corpus with
    | None -> []
    | Some path -> (
        try Si_treebank.Penn.read_file path with
        | Sys_error what -> fail_si (Si_core.Si_error.Io { path; what })
        | Failure what ->
            fail_si (Si_core.Si_error.Corrupt { path; offset = 0; what }))
  in
  let from_args =
    List.map
      (fun s ->
        try Si_treebank.Penn.parse_one_exn s
        with Failure what ->
          fail_si
            (Si_core.Si_error.Corrupt { path = "<TREE argument>"; offset = 0; what }))
      tree_args
  in
  let trees = from_file @ from_args in
  if trees = [] then begin
    Printf.eprintf "si_tool: insert needs TREE arguments or --corpus FILE\n";
    exit 2
  end;
  match open_any_or_fail prefix with
  | Si_core.Si.Single si ->
      let total = ok_or_fail (Si_core.Si.insert si trees) in
      Printf.printf "inserted %d trees: total=%d pending=%d wal_bytes=%d\n"
        (List.length trees) total (Si_core.Si.pending si)
        (Si_core.Si.wal_bytes si);
      Si_core.Si.close_wal si
  | Si_core.Si.Sharded sh ->
      (* each tree routes to its owning shard's WAL *)
      let total = ok_or_fail (Si_core.Si.insert_sharded sh trees) in
      Printf.printf
        "inserted %d trees (routed): total=%d pending=%d wal_bytes=%d\n"
        (List.length trees) total
        (Si_core.Si.pending_sharded sh)
        (Si_core.Si.wal_bytes_sharded sh);
      Si_core.Si.close_wal_sharded sh

let insert_cmd =
  let corpus =
    Arg.(value & opt (some file) None & info [ "corpus" ] ~docv:"FILE"
           ~doc:"Insert every tree in FILE (Penn format, as $(b,gen) writes).")
  in
  let tree_args =
    Arg.(value & pos_all string [] & info [] ~docv:"TREE"
           ~doc:"Penn tree text, e.g. '(S (NP (DT the) (NN cat)) (VP (VB sat)))'; \
                 quote it — the bracketing contains spaces.")
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"WAL-append trees into an existing index without rebuilding it. \
             Each tree is appended to PREFIX.wal (CRC-framed, fsync'd) \
             before the command acknowledges it; the next open replays the \
             WAL into an in-memory delta queried alongside the main \
             postings.  Run $(b,si_tool checkpoint) to fold the WAL into a \
             new main index.")
    Term.(const insert $ prefix_arg $ corpus $ tree_args $ failpoints_arg)

let checkpoint prefix shard failpoints =
  arm_failpoints failpoints;
  match open_any_or_fail prefix with
  | Si_core.Si.Single si ->
      (match shard with
      | Some k ->
          Printf.eprintf
            "si_tool: --shard %d: the index at %s is not sharded\n" k prefix;
          exit 2
      | None -> ());
      let before = (Si_core.Si.stats si).Si_core.Builder.trees in
      let merged = ok_or_fail (Si_core.Si.checkpoint si) in
      if merged = 0 then Printf.printf "nothing pending: total=%d\n" before
      else
        Printf.printf "checkpointed %d pending trees into %s: total=%d\n"
          merged prefix (before + merged);
      Si_core.Si.close_wal si
  | Si_core.Si.Sharded sh ->
      (match shard with
      | Some k when k < 0 || k >= Si_core.Si.shard_count sh ->
          Printf.eprintf "si_tool: --shard %d: index has %d shards\n" k
            (Si_core.Si.shard_count sh);
          exit 2
      | _ -> ());
      let merged = ok_or_fail (Si_core.Si.checkpoint_sharded ?shard sh) in
      if merged = 0 then
        Printf.printf "nothing pending: total=%d\n"
          (Si_core.Si.sharded_total sh)
      else
        Printf.printf "checkpointed %d pending trees into %s%s: total=%d\n"
          merged prefix
          (match shard with
          | Some k -> Printf.sprintf " (shard %d)" k
          | None -> "")
          (Si_core.Si.sharded_total sh);
      Si_core.Si.close_wal_sharded sh

let checkpoint_cmd =
  let shard =
    Arg.(value & opt (some int) None & info [ "shard" ] ~docv:"K"
           ~doc:"Sharded prefix only: fold shard K's slice of the WAL \
                 delta; the other members keep their pending debt.")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Fold the WAL delta into a new main index set at PREFIX \
             (published via the crash-consistent staged-rename protocol) \
             and truncate the WAL.  A crash at any point leaves either the \
             old set plus a replayable WAL or the new set — never a torn \
             state.  On a sharded prefix every member folds (or one with \
             $(b,--shard)).")
    Term.(const checkpoint $ prefix_arg $ shard $ failpoints_arg)

(* ---- serve ------------------------------------------------------------- *)

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* Fault-isolated: per-slot errors are counted and reported, never
   rethrown — one pathological or failing query must not take down the
   batch.  Exit 0 means the batch machinery ran to completion; per-query
   failures are visible in errors= and on stderr. *)
(* Sharded prefix: the per-query fan-out across the affinity pool IS the
   parallelism, so the stream runs sequentially — each query already
   occupies every pool worker. *)
let serve_batch_sharded sh qs limits =
  let n = Array.length qs in
  let lat = Array.make n 0. in
  let total = ref 0 and errors = ref 0 and truncated = ref 0 in
  let t0 = Si_core.Monotonic.now_ns () in
  Array.iteri
    (fun i qstr ->
      let q0 = Si_core.Monotonic.now_ns () in
      (match Si_core.Si.query_outcome_sharded ~limits sh qstr with
      | Error e ->
          incr errors;
          Printf.eprintf "query %d failed: %s\n" i
            (Si_core.Si_error.to_string e)
      | Ok so ->
          let o = so.Si_core.Si.so_outcome in
          total := !total + List.length o.Si_core.Limits.matches;
          if o.Si_core.Limits.truncated then incr truncated);
      lat.(i) <- float_of_int (Si_core.Monotonic.now_ns () - q0))
    qs;
  let elapsed = Si_core.Monotonic.elapsed_s t0 in
  Array.sort compare lat;
  Printf.printf
    "queries=%d shards=%d matches=%d errors=%d truncated=%d elapsed=%.3fs qps=%.0f\n"
    n
    (Si_core.Si.shard_count sh)
    !total !errors !truncated elapsed
    (if elapsed > 0. then float_of_int n /. elapsed else 0.);
  Printf.printf "latency_ns p50=%.0f p95=%.0f p99=%.0f\n" (quantile lat 0.50)
    (quantile lat 0.95) (quantile lat 0.99)

let serve_batch prefix batch_file domains cache_budget limits =
  let qs = read_queries batch_file in
  let si =
    match open_any_or_fail ?cache_budget prefix with
    | Si_core.Si.Sharded sh ->
        serve_batch_sharded sh qs limits;
        exit 0
    | Si_core.Si.Single si -> si
  in
  let b = Si_core.Si.query_batch ~domains ?cache_budget ~limits si qs in
  let total = ref 0 and errors = ref 0 and truncated = ref 0 in
  Array.iteri
    (fun i -> function
      | Error e ->
          incr errors;
          Printf.eprintf "query %d failed: %s\n" i (Si_core.Si_error.to_string e)
      | Ok o ->
          total := !total + List.length o.Si_core.Limits.matches;
          if o.Si_core.Limits.truncated then incr truncated)
    b.Si_core.Si.answers;
  let lat = Array.copy b.Si_core.Si.latencies_ns in
  Array.sort compare lat;
  let n = Array.length qs in
  Printf.printf
    "queries=%d domains=%d matches=%d errors=%d truncated=%d elapsed=%.3fs qps=%.0f\n"
    n
    (Array.length b.Si_core.Si.domain_stats)
    !total !errors !truncated b.Si_core.Si.elapsed_s
    (if b.Si_core.Si.elapsed_s > 0. then float_of_int n /. b.Si_core.Si.elapsed_s
     else 0.);
  Printf.printf "latency_ns p50=%.0f p95=%.0f p99=%.0f\n" (quantile lat 0.50)
    (quantile lat 0.95) (quantile lat 0.99);
  let cs = b.Si_core.Si.cache in
  Printf.printf "cache hits=%d misses=%d evictions=%d resident=%d entries=%d\n"
    cs.Si_core.Cache.hits cs.Si_core.Cache.misses cs.Si_core.Cache.evictions
    cs.Si_core.Cache.resident cs.Si_core.Cache.entries;
  Array.iteri
    (fun d (st : Si_core.Si.domain_stat) ->
      Printf.printf "domain %d: queries=%d errors=%d busy_ms=%.1f%s\n" d
        st.Si_core.Si.queries_run st.Si_core.Si.errors
        (float_of_int st.Si_core.Si.busy_ns /. 1e6)
        (match st.Si_core.Si.died with
        | None -> ""
        | Some why -> " DIED: " ^ why))
    b.Si_core.Si.domain_stats

(* The long-lived network mode: si_tool serve --listen PORT.  The process
   runs until SIGTERM/SIGINT (graceful drain), or a SHUTDOWN wire request;
   SIGHUP hot-reloads the served prefix through the zero-downtime swap
   path (same as the SWAP verb). *)
let serve_net prefix host port workers accept_queue cache_budget limits
    batch_deadline_ms quota_rps quota_burst brownout shed checkpoint_records
    checkpoint_bytes scrub_interval_s scrub_budget_bytes auto_repair_threshold =
  if workers < 1 then begin
    Printf.eprintf "si_tool: --workers must be >= 1 (got %d)\n" workers;
    exit 2
  end;
  let batch_limits =
    match batch_deadline_ms with
    | None -> limits
    | Some ms ->
        Si_core.Limits.
          { limits with deadline_ns = Some (int_of_float (ms *. 1e6)) }
  in
  let admission =
    {
      Si_serve.Admission.default_config with
      interactive = limits;
      batch = batch_limits;
      quota_rps;
      quota_burst;
      brownout_inflight = brownout;
      shed_inflight = shed;
    }
  in
  let cfg =
    {
      (Si_serve.Server.default_config ~prefix) with
      host;
      port;
      workers;
      accept_queue;
      cache_budget;
      admission;
      checkpoint_records;
      checkpoint_bytes;
      scrub_interval_s;
      scrub_budget_bytes;
      auto_repair_threshold;
    }
  in
  match Si_serve.Server.start cfg with
  | Error e -> fail_si e
  | Ok srv ->
      Printf.printf
        "listening on %s:%d (prefix=%s workers=%d accept_queue=%d)\n%!" host
        (Si_serve.Server.port srv)
        prefix workers accept_queue;
      let stop_req = ref false and hup_req = ref false in
      let handle r = Sys.Signal_handle (fun _ -> r := true) in
      List.iter
        (fun s -> try Sys.set_signal s (handle stop_req) with Invalid_argument _ -> ())
        [ Sys.sigterm; Sys.sigint ];
      (try Sys.set_signal Sys.sighup (handle hup_req)
       with Invalid_argument _ -> ());
      let rec wait () =
        if !stop_req || Si_serve.Server.stopping srv then ()
        else begin
          if !hup_req then begin
            hup_req := false;
            match Si_serve.Server.reload srv with
            | Ok gen ->
                Printf.eprintf "si_tool: SIGHUP reload -> generation %d\n%!" gen
            | Error e ->
                Printf.eprintf "si_tool: SIGHUP reload failed: %s\n%!"
                  (Si_core.Si_error.to_string e)
          end;
          (try Unix.sleepf 0.2
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          wait ()
        end
      in
      wait ();
      Si_serve.Server.stop srv;
      let m = Si_serve.Server.metrics srv in
      let up = Si_serve.Metrics.uptime_s m in
      let queries = Si_serve.Metrics.queries m in
      Printf.printf "shutdown complete: queries=%d qps=%.1f uptime_s=%.1f\n"
        queries
        (if up > 0. then float_of_int queries /. up else 0.)
        up

let serve prefix batch_file listen host workers accept_queue domains
    cache_budget limits batch_deadline_ms quota_rps quota_burst brownout shed
    checkpoint_records checkpoint_bytes scrub_interval_s scrub_budget_bytes
    auto_repair_threshold =
  if domains < 1 then begin
    Printf.eprintf "si_tool: --domains must be >= 1 (got %d)\n" domains;
    exit 2
  end;
  match (batch_file, listen) with
  | Some batch, None -> serve_batch prefix batch domains cache_budget limits
  | None, Some port ->
      serve_net prefix host port workers accept_queue cache_budget limits
        batch_deadline_ms quota_rps quota_burst brownout shed
        checkpoint_records checkpoint_bytes scrub_interval_s scrub_budget_bytes
        auto_repair_threshold
  | Some _, Some _ ->
      Printf.eprintf "si_tool: pass either --batch or --listen, not both\n";
      exit 2
  | None, None ->
      Printf.eprintf "si_tool: serve needs --batch FILE or --listen PORT\n";
      exit 2

let serve_cmd =
  let batch_file =
    Arg.(value & opt (some file) None & info [ "batch" ] ~docv:"FILE"
           ~doc:"Offline mode: evaluate the query stream in FILE (one query \
                 per line, # comments) and exit.")
  in
  let listen =
    Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT"
           ~doc:"Network mode: serve the newline-delimited wire protocol on \
                 PORT (0 picks an ephemeral port) until SIGTERM or a \
                 SHUTDOWN request; SIGHUP hot-swaps the index.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Bind address for --listen.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains serving connections in --listen mode \
                 (IO-bound, so not clamped to the core count).")
  in
  let accept_queue =
    Arg.(value & opt int 64 & info [ "accept-queue" ] ~docv:"N"
           ~doc:"Bounded accept-queue capacity; a full queue sheds new \
                 connections with ERR overloaded instead of queueing.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Batch mode: fan the stream across N OCaml domains over one \
                 shared index handle (clamped to the machine's recommended \
                 domain count, with a warning).")
  in
  let cache_budget =
    Arg.(value & opt (some int) None & info [ "cache-budget" ] ~docv:"BYTES"
           ~doc:"Per-domain/worker decoded-block cache budget in bytes \
                 (default 64 MiB).")
  in
  let batch_deadline_ms =
    Arg.(value & opt (some float) None & info [ "batch-deadline-ms" ] ~docv:"MS"
           ~doc:"Deadline for class=batch requests (--listen mode); they \
                 inherit the interactive limits otherwise.")
  in
  let quota_rps =
    Arg.(value & opt (some float) None & info [ "quota-rps" ] ~docv:"R"
           ~doc:"Per-client admission quota: R requests/second (token \
                 bucket), rejected with ERR quota_exceeded when spent.")
  in
  let quota_burst =
    Arg.(value & opt float 8. & info [ "quota-burst" ] ~docv:"N"
           ~doc:"Token-bucket capacity for --quota-rps.")
  in
  let brownout =
    Arg.(value & opt (some int) None & info [ "brownout" ] ~docv:"N"
           ~doc:"Above N in-flight queries, degrade admitted requests to \
                 --partial with a tight deadline (brownout) instead of \
                 letting latency grow.")
  in
  let shed =
    Arg.(value & opt (some int) None & info [ "shed" ] ~docv:"N"
           ~doc:"Above N in-flight queries, reject with ERR overloaded \
                 (load shedding).")
  in
  let checkpoint_records =
    Arg.(value & opt (some int) None & info [ "checkpoint-records" ] ~docv:"N"
           ~doc:"--listen mode: auto-checkpoint once N WAL records are \
                 pending (fold the delta into a new main set and swap to \
                 it); INSERTs keep the delta live until then.")
  in
  let checkpoint_bytes =
    Arg.(value & opt (some int) None & info [ "checkpoint-bytes" ] ~docv:"BYTES"
           ~doc:"--listen mode: auto-checkpoint once the WAL file reaches \
                 BYTES.")
  in
  let scrub_interval_s =
    Arg.(value & opt (some float) None & info [ "scrub-interval" ] ~docv:"S"
           ~doc:"--listen mode: run a background integrity scrub pass every \
                 S seconds over the serving index's lazily-verified regions; \
                 damage quarantines the handle and queries answer exactly \
                 from the corpus fallback.")
  in
  let scrub_budget_bytes =
    Arg.(value & opt (some int) None & info [ "scrub-budget" ] ~docv:"BYTES"
           ~doc:"Byte budget per background scrub pass (the cursor resumes \
                 next pass); unbudgeted by default.")
  in
  let auto_repair_threshold =
    Arg.(value & opt (some int) None & info [ "auto-repair" ] ~docv:"N"
           ~doc:"Rebuild a quarantined index from the corpus store and swap \
                 to it once its damage pressure (scrub-localized bad keys + \
                 fallback-answered queries) reaches N; 1 repairs on the \
                 first scrub tick after any quarantine.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve queries: --listen runs the long-lived network server \
             (admission control, quotas, hot index swap via SWAP/SIGHUP, \
             live INSERT/CHECKPOINT, STATS/HEALTH); --batch \
             throughput-evaluates a query file and exits.  Fault-isolated \
             either way: a failing query poisons only its own answer.")
    Term.(const serve $ prefix_arg $ batch_file $ listen $ host $ workers
          $ accept_queue $ domains $ cache_budget $ limits_term
          $ batch_deadline_ms $ quota_rps $ quota_burst $ brownout $ shed
          $ checkpoint_records $ checkpoint_bytes $ scrub_interval_s
          $ scrub_budget_bytes $ auto_repair_threshold)

(* ---- stats ------------------------------------------------------------- *)

(* Per-region CRC state of a mapped handle: the .idx regions from
   Builder.mapped_stats plus the .trees regions from Treestore.crc_state,
   each tagged with the file it lives in.  [None] for heap handles. *)
let mmap_regions si =
  match Si_core.Builder.mapped_stats (Si_core.Si.index si) with
  | None -> None
  | Some m ->
      let idx =
        List.map
          (fun (r : Si_core.Builder.region_state) ->
            ("idx", r.Si_core.Builder.rname, r.Si_core.Builder.rbytes,
             r.Si_core.Builder.rverified))
          m.Si_core.Builder.regions
      in
      let store = Si_core.Corpus.store (Si_core.Si.corpus si) in
      let trees =
        match store with
        | None -> []
        | Some st ->
            List.map
              (fun (name, bytes, verified) -> ("trees", name, bytes, verified))
              (Si_core.Treestore.crc_state st)
      in
      let store_mapped, store_resident =
        match store with
        | None -> (0, 0)
        | Some st ->
            let body =
              List.fold_left
                (fun acc (_, b, v) -> if v then acc + b else acc)
                0
                (Si_core.Treestore.crc_state st)
            in
            (* header + footer always fault in at open; bodies on first CRC *)
            (Si_core.Treestore.mapped_bytes st, 52 + body)
      in
      Some
        ( m.Si_core.Builder.mapped_bytes + store_mapped,
          m.Si_core.Builder.resident_estimate + store_resident,
          idx @ trees )

(* WAL debt as it sits on disk (the handle's own [wal_bytes] counts only
   a WAL it has opened for append) *)
let wal_file_bytes prefix =
  match Unix.stat (Si_core.Wal.path prefix) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0
  | exception Sys_error _ -> 0

let wal_debt h prefix =
  match h with
  | Si_core.Si.Single si -> (Si_core.Si.pending si, wal_file_bytes prefix)
  | Si_core.Si.Sharded sh ->
      let bytes = ref 0 in
      for i = 0 to Si_core.Si.shard_count sh - 1 do
        bytes :=
          !bytes + wal_file_bytes (Si_core.Shardmap.shard_prefix prefix i)
      done;
      (Si_core.Si.pending_sharded sh, !bytes)

(* --json emits the same "index" object the network server's STATS verb
   returns (Si_serve.Metrics.index_json — one schema, two producers),
   plus the offline-only histogram, cache and wal sections. *)
let stats_json_sharded prefix sh =
  let open Si_serve.Jsonx in
  let pending, wal_bytes = wal_debt (Si_core.Si.Sharded sh) prefix in
  let cs = cache_stats_any (Si_core.Si.Sharded sh) in
  print_endline
    (to_string
       (Obj
          [
            ("index", Si_serve.Metrics.sharded_index_json sh);
            ("shards", Si_serve.Metrics.shards_json sh);
            ( "wal",
              Obj [ ("pending", Int pending); ("wal_bytes", Int wal_bytes) ] );
            ( "cache",
              Obj
                [
                  ("hits", Int cs.Si_core.Cache.hits);
                  ("misses", Int cs.Si_core.Cache.misses);
                  ("evictions", Int cs.Si_core.Cache.evictions);
                  ("resident", Int cs.Si_core.Cache.resident);
                  ("entries", Int cs.Si_core.Cache.entries);
                ] );
          ]))

let stats_json prefix si =
  let open Si_serve.Jsonx in
  let hist kvs = Arr (List.map (fun (a, b) -> Arr [ Int a; Int b ]) kvs) in
  let cs = Si_core.Si.cache_stats si in
  let pending, wal_bytes = wal_debt (Si_core.Si.Single si) prefix in
  let mmap_section =
    match mmap_regions si with
    | None -> []
    | Some (mapped_bytes, resident, regions) ->
        [
          ( "mmap",
            Obj
              [
                ("mapped_bytes", Int mapped_bytes);
                ("resident_estimate", Int resident);
                ( "regions",
                  Arr
                    (List.map
                       (fun (file, name, bytes, verified) ->
                         Obj
                           [
                             ("file", Str file);
                             ("name", Str name);
                             ("bytes", Int bytes);
                             ("verified", Bool verified);
                           ])
                       regions) );
              ] );
        ]
  in
  print_endline
    (to_string
       (Obj
          ([
            ("index", Si_serve.Metrics.index_json si);
            ( "wal",
              Obj [ ("pending", Int pending); ("wal_bytes", Int wal_bytes) ] );
            ( "posting_length_histogram",
              hist (Si_core.Builder.length_histogram (Si_core.Si.index si)) );
            ( "block_histogram",
              hist (Si_core.Builder.block_histogram (Si_core.Si.index si)) );
            ( "cache",
              Obj
                [
                  ("budget", Int cs.Si_core.Cache.budget);
                  ("hits", Int cs.Si_core.Cache.hits);
                  ("misses", Int cs.Si_core.Cache.misses);
                  ("evictions", Int cs.Si_core.Cache.evictions);
                  ("resident", Int cs.Si_core.Cache.resident);
                  ("entries", Int cs.Si_core.Cache.entries);
                ] );
          ]
          @ mmap_section)))

let stats_sharded prefix sh =
  let hs = Si_core.Si.shard_handles sh in
  let agg f =
    Array.fold_left (fun acc si -> acc + f (Si_core.Si.stats si)) 0 hs
  in
  Printf.printf
    "scheme=%s mss=%d backend=sharded shards=%d trees=%d nodes=%d keys=%d \
     postings=%d idx_bytes=%d\n"
    (Si_core.Coding.scheme_to_string (Si_core.Si.scheme hs.(0)))
    (Si_core.Si.mss hs.(0))
    (Array.length hs)
    (agg (fun s -> s.Si_core.Builder.trees))
    (agg (fun s -> s.Si_core.Builder.nodes))
    (agg (fun s -> s.Si_core.Builder.keys))
    (agg (fun s -> s.Si_core.Builder.postings))
    (agg (fun s -> s.Si_core.Builder.bytes));
  Array.iteri
    (fun i si ->
      let s = Si_core.Si.stats si in
      Printf.printf
        "  shard %d: backend=%s trees=%d keys=%d postings=%d idx_bytes=%d \
         pending=%d\n"
        i
        (Si_serve.Metrics.backend_str si)
        s.Si_core.Builder.trees s.Si_core.Builder.keys
        s.Si_core.Builder.postings s.Si_core.Builder.bytes
        (Si_core.Si.pending si))
    hs;
  let pending, wal_bytes = wal_debt (Si_core.Si.Sharded sh) prefix in
  Printf.printf "wal pending=%d wal_bytes=%d\n" pending wal_bytes

let stats prefix json =
  match open_any_or_fail prefix with
  | Si_core.Si.Sharded sh ->
      if json then stats_json_sharded prefix sh else stats_sharded prefix sh
  | Si_core.Si.Single si ->
  if json then stats_json prefix si
  else begin
  let s = Si_core.Si.stats si in
  Printf.printf "scheme=%s mss=%d backend=%s trees=%d nodes=%d keys=%d postings=%d idx_bytes=%d\n"
    (Si_core.Coding.scheme_to_string (Si_core.Si.scheme si))
    (Si_core.Si.mss si)
    (Si_serve.Metrics.backend_str si)
    s.Si_core.Builder.trees s.Si_core.Builder.nodes
    s.Si_core.Builder.keys s.Si_core.Builder.postings s.Si_core.Builder.bytes;
  (let pending, wal_bytes = wal_debt (Si_core.Si.Single si) prefix in
   if pending > 0 || wal_bytes > 0 then
     Printf.printf "wal pending=%d wal_bytes=%d\n" pending wal_bytes);
  (match mmap_regions si with
  | None -> ()
  | Some (mapped_bytes, resident, regions) ->
      Printf.printf "mmap mapped_bytes=%d resident_estimate=%d\n" mapped_bytes
        resident;
      List.iter
        (fun (file, name, bytes, verified) ->
          Printf.printf "  region %s/%-8s %10d bytes crc=%s\n" file name bytes
            (if verified then "verified" else "lazy"))
        regions);
  (* posting-length histogram: keys per power-of-two entry-count bucket,
     computed from slot metadata without decoding any posting *)
  print_endline "posting-length histogram (entries <= bucket : keys):";
  let hist = Si_core.Builder.length_histogram (Si_core.Si.index si) in
  let width =
    List.fold_left (fun w (_, c) -> max w c) 1 hist |> float_of_int
  in
  List.iter
    (fun (bucket, count) ->
      let bar = int_of_float (50.0 *. float_of_int count /. width) in
      Printf.printf "  <=%-8d %8d %s\n" bucket count (String.make bar '#'))
    hist;
  (* block layout: how many keys are split into how many skip blocks *)
  print_endline "block histogram (blocks : keys):";
  List.iter
    (fun (nblocks, count) -> Printf.printf "  %-8d %8d\n" nblocks count)
    (Si_core.Builder.block_histogram (Si_core.Si.index si));
  let cs = Si_core.Si.cache_stats si in
  Printf.printf
    "cache budget=%d hits=%d misses=%d evictions=%d resident=%d entries=%d\n"
    cs.Si_core.Cache.budget cs.Si_core.Cache.hits cs.Si_core.Cache.misses
    cs.Si_core.Cache.evictions cs.Si_core.Cache.resident cs.Si_core.Cache.entries
  end

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one line of JSON; the \"index\" object is \
                 byte-compatible with the network server's STATS verb.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print statistics of a built index.")
    Term.(const stats $ prefix_arg $ json)

(* ---- openbench ---------------------------------------------------------- *)

(* Open-latency measurement for the mmap-smoke CI gate and the bench
   harness: time [Si.open_] end to end, [repeat] times, on whatever
   container lives at the prefix.  With a QUERY, the last handle also
   evaluates it once (the first-touch cost an O(1) open defers). *)
let openbench prefix repeat query =
  if repeat < 1 then begin
    Printf.eprintf "si_tool: --repeat must be >= 1 (got %d)\n" repeat;
    exit 2
  end;
  let times = Array.make repeat 0. in
  let last = ref None in
  for i = 0 to repeat - 1 do
    let t0 = Si_core.Monotonic.now_ns () in
    let h = open_any_or_fail prefix in
    times.(i) <- float_of_int (Si_core.Monotonic.now_ns () - t0) /. 1e6;
    last := Some h
  done;
  let h = Option.get !last in
  let sorted = Array.copy times in
  Array.sort compare sorted;
  let mean = Array.fold_left ( +. ) 0. times /. float_of_int repeat in
  let backend, trees, keys =
    match h with
    | Si_core.Si.Single si ->
        let s = Si_core.Si.stats si in
        ( Si_serve.Metrics.backend_str si,
          s.Si_core.Builder.trees,
          s.Si_core.Builder.keys )
    | Si_core.Si.Sharded sh ->
        let agg f =
          Array.fold_left
            (fun acc si -> acc + f (Si_core.Si.stats si))
            0
            (Si_core.Si.shard_handles sh)
        in
        ( "sharded",
          agg (fun s -> s.Si_core.Builder.trees),
          agg (fun s -> s.Si_core.Builder.keys) )
  in
  Printf.printf
    "open_ms_min=%.3f open_ms_p50=%.3f open_ms_mean=%.3f open_ms_max=%.3f \
     repeat=%d backend=%s trees=%d keys=%d\n"
    sorted.(0)
    (quantile sorted 0.50)
    mean
    sorted.(repeat - 1)
    repeat backend trees keys;
  match query with
  | None -> ()
  | Some qstr ->
      let t0 = Si_core.Monotonic.now_ns () in
      let matches =
        match h with
        | Si_core.Si.Single si -> ok_or_fail (Si_core.Si.query si qstr)
        | Si_core.Si.Sharded sh -> ok_or_fail (Si_core.Si.query_sharded sh qstr)
      in
      let dt = float_of_int (Si_core.Monotonic.now_ns () - t0) /. 1e6 in
      Printf.printf "first_query_ms=%.3f matches=%d\n" dt (List.length matches)

let openbench_cmd =
  let repeat =
    Arg.(value & opt int 5 & info [ "repeat" ] ~docv:"N"
           ~doc:"Open the prefix N times and report the latency spread.")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "query" ] ~docv:"QUERY"
           ~doc:"After the last open, evaluate QUERY once and report the \
                 first-touch latency (the cost an O(1) open defers).")
  in
  Cmd.v
    (Cmd.info "openbench"
       ~doc:"Measure index open latency (the mmap-smoke CI gate).")
    Term.(const openbench $ prefix_arg $ repeat $ query)

(* ---- scrub -------------------------------------------------------------- *)

(* Offline integrity scrub (DESIGN.md §15): drive the cursor through one
   full cycle — budgeted passes just bound how much each pass hashes, the
   loop resumes until the cycle completes — then report, and optionally
   repair from the corpus store. *)
let scrub prefix repair max_bytes deadline_ms =
  let h = open_any_or_fail prefix in
  let budget = Si_core.Scrub.budget ?max_bytes ?deadline_ms () in
  let pass_once () =
    match h with
    | Si_core.Si.Single si -> [| Si_core.Si.scrub ~budget si |]
    | Si_core.Si.Sharded sh -> Si_core.Si.scrub_sharded ~budget sh
  in
  let bytes = ref 0 and passes = ref 0 in
  let rec drive () =
    let rs = pass_once () in
    incr passes;
    Array.iter
      (fun (r : Si_core.Scrub.report) -> bytes := !bytes + r.bytes_verified)
      rs;
    if Array.for_all (fun (r : Si_core.Scrub.report) -> r.complete) rs then rs
    else drive ()
  in
  let rs = drive () in
  let sharded = Array.length rs > 1 in
  let clean = Array.for_all (fun (r : Si_core.Scrub.report) -> r.clean) rs in
  Printf.printf "scrub bytes=%d passes=%d clean=%d\n" !bytes !passes
    (if clean then 1 else 0);
  Array.iteri
    (fun i (r : Si_core.Scrub.report) ->
      let tag = if sharded then Printf.sprintf "shard %d: " i else "" in
      if r.bad_regions <> [] then
        Printf.printf "%sbad regions: %s\n" tag
          (String.concat " " r.bad_regions);
      if r.bad_keys <> [] then
        Printf.printf "%sbad keys (%d): %s\n" tag
          (List.length r.bad_keys)
          (String.concat " " (List.map String.escaped r.bad_keys));
      if r.bad_trees <> [] then
        Printf.printf "%sbad trees (%d): %s\n" tag
          (List.length r.bad_trees)
          (String.concat " " (List.map string_of_int r.bad_trees)))
    rs;
  if not clean then
    if repair then begin
      let repaired =
        match h with
        | Si_core.Si.Single si -> ok_or_fail (Si_core.Si.repair si)
        | Si_core.Si.Sharded sh -> ok_or_fail (Si_core.Si.repair_sharded sh)
      in
      Printf.printf "repaired trees=%d prefix=%s\n" repaired prefix
    end
    else
      let bad =
        Array.fold_left
          (fun acc (r : Si_core.Scrub.report) ->
            acc + List.length r.bad_regions + List.length r.bad_keys
            + List.length r.bad_trees)
          0 rs
      in
      fail_si
        (Si_core.Si_error.Corrupt
           {
             path = prefix;
             offset = 0;
             what =
               Printf.sprintf
                 "scrub found %d damaged regions/keys/trees (rerun with \
                  --repair to rebuild from the corpus store)"
                 bad;
           })

let scrub_cmd =
  let repair =
    Arg.(value & flag & info [ "repair" ]
           ~doc:"If the scrub finds index damage, rebuild the prefix from \
                 the corpus store + WAL delta and republish it through the \
                 staged-rename protocol (the prefix then reopens clean).")
  in
  let max_bytes =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"BYTES"
           ~doc:"Hash at most BYTES per pass (the cursor resumes across \
                 passes until the cycle completes).")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None & info [ "pass-deadline-ms" ] ~docv:"MS"
           ~doc:"Per-pass deadline on the monotonic clock.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Verify every lazily-verified region of a built index (CRC walk \
             + per-key/per-tree localization); exit 3 on damage, or repair \
             it in place with $(b,--repair).")
    Term.(const scrub $ prefix_arg $ repair $ max_bytes $ deadline_ms)

(* ---- failpoints --------------------------------------------------------- *)

let failpoints () =
  Printf.printf "spec grammar: name=ACTION[@TRIGGER][;...]\n";
  Printf.printf
    "actions: fail | sys | exit:CODE | delay:MS | short:N   triggers: @N | @N+ | @p:PCT:SEED\n";
  Printf.printf "armed via --failpoints (build) or $%s\n\n" Si_core.Failpoint.env_var;
  Printf.printf "known injection points:\n";
  List.iter
    (fun (name, where) -> Printf.printf "  %-24s %s\n" name where)
    Si_core.Failpoint.known

let failpoints_cmd =
  Cmd.v
    (Cmd.info "failpoints"
       ~doc:"List the fault-injection points and the arming spec grammar.")
    Term.(const failpoints $ const ())

let () =
  (* fault injection armed process-wide from the environment, before any
     subcommand touches the index files *)
  (match Si_core.Failpoint.arm_from_env () with
  | Ok () -> ()
  | Error what ->
      Printf.eprintf "si_tool: bad $%s spec: %s\n" Si_core.Failpoint.env_var what;
      exit 2);
  let info =
    Cmd.info "si_tool" ~version:"0.1.0"
      ~doc:"Subtree index over syntactically annotated trees (PVLDB 2012)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; build_cmd; query_cmd; insert_cmd; checkpoint_cmd;
            serve_cmd; stats_cmd; scrub_cmd; openbench_cmd; failpoints_cmd ]))
