(* si_bench — the workload benchmark of the subtree index.

   One run of one workload builds the index with [si_tool build] as a
   user would, serves it with [si_tool serve] (or calls [si_tool query]
   once per request), drives it from this single-threaded process, checks
   every distinct answer against the brute-force oracle, and prints every
   metric by name with its unit and sample count.  The last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics} holding BENCHMARK.json's end-to-end metrics, or its per-layer
   metrics under [--trace 1].  README.md explains the workloads and every
   metric. *)

open Si_treebank
module J = Si_serve.Jsonx

let now = Wire.now
let ms ns = float_of_int ns /. 1e6
let sec s = int_of_float (s *. 1e9)

(* ---- workloads ---------------------------------------------------------- *)

type spec = {
  name : string;
  scheme : string;
  shards : int;
  cache_budget : int option;  (** per-worker decode cache; default 64 MiB *)
  nqueries : int;
  min_size : int;
  max_size : int;
  selective : bool;  (** only classes holding an L (rare) label *)
  min_matches : int;  (** leave out queries with fewer corpus matches *)
  count_only : bool;
  wire : bool;  (** false: one [si_tool query] process per request *)
  rate : float;  (** open-loop query rate, 1/s; 0 = closed loop only *)
  writer : bool;  (** INSERTs back to back are the measured operation *)
  checkpoint_records : int option;
}

(* The open-loop query rate, frozen once and never recomputed per run:
   about a third of serve-warm's closed-loop throughput at seed 2012,
   rounded to a multiple of 10 (README.md records the calibration). *)
let r_warm = 300.

let serve_warm =
  {
    name = "serve-warm";
    scheme = "root-split";
    shards = 1;
    cache_budget = None;
    nqueries = 300;
    min_size = 2;
    max_size = 8;
    selective = false;
    min_matches = 0;
    count_only = false;
    wire = true;
    rate = r_warm;
    writer = false;
    checkpoint_records = None;
  }

let specs =
  [
    serve_warm;
    {
      serve_warm with
      name = "serve-cold";
      scheme = "interval";
      cache_budget = Some 1_048_576;
      min_matches = 10;
      count_only = true;
      rate = 0.;
    };
    {
      serve_warm with
      name = "cli-oneshot";
      scheme = "filter";
      shards = 2;
      nqueries = 80;
      min_size = 4;
      selective = true;
      wire = false;
      rate = 0.;
    };
    {
      serve_warm with
      name = "serve-ingest";
      rate = r_warm /. 2.;
      writer = true;
      checkpoint_records = Some 200;
    };
  ]

type opts = {
  seed : int;
  seconds : float;  (** measured traffic per run, warm-up included *)
  trace : bool;
  out : string;
  n_trees : int;
  setups : int;  (** set-ups per run; setup_s is their median *)
  replay_queries : int;
  wal_inserts : int;
  min_samples : int;  (** latency samples a percentile must rest on *)
}

(* warm-up (unmeasured), then the measured window; serve-warm splits the
   window evenly between its closed and its open loop *)
let phases opts = (0.1 *. opts.seconds, 0.45 *. opts.seconds, 0.45 *. opts.seconds)

(* ---- metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string; n : int }

let metric name value unit n = { name; value; unit; n }
let q xs p = Stat.quantile xs p

exception Incorrect of string

let incorrect fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt

(* ---- files -------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Unix.mkdir p 0o755
  end

(* bytes of an index set: every PREFIX.* file, shard members and WAL
   included *)
let prefix_bytes prefix =
  let dir = Filename.dirname prefix and base = Filename.basename prefix ^ "." in
  Array.fold_left
    (fun acc f ->
      if String.starts_with ~prefix:base f then acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* ---- set-up ------------------------------------------------------------- *)

type setup = {
  dir : string;
  prefix : string;
  corpus_file : string;
  server : Proc.server option;
  gen_s : float;
  build_s : float;
  ready_s : float;
  builds : int;  (** [si_tool build] runs it took; each beyond the first crashed *)
}

let server_args (spec : spec) prefix =
  [ "--prefix"; prefix; "--workers"; "2" ]
  @ (match spec.cache_budget with Some b -> [ "--cache-budget"; string_of_int b ] | None -> [])
  @
  match spec.checkpoint_records with
  | Some n -> [ "--checkpoint-records"; string_of_int n ]
  | None -> []

(* One set-up, timed as a user pays it: generate the corpus, build the
   index, and wait until the program first answers (HEALTH OK, or a
   first CLI query). *)
let setup_once (spec : spec) opts dir =
  mkdir_p dir;
  let corpus_file = Filename.concat dir "corpus.penn" and prefix = Filename.concat dir "ix" in
  let log = Filename.concat dir "tool.log" in
  let t0 = now () in
  Proc.run_tool ~log
    [ "gen"; "-n"; string_of_int opts.n_trees; "--seed"; string_of_int opts.seed; "-o"; corpus_file ];
  let t1 = now () in
  (* a build that crashes is retried, as a user would, and counted as a
     failed operation: sharded builds have died on an uncaught
     CamlinternalLazy.Undefined about once in thirty *)
  let rec build attempt =
    match
      Proc.run_tool ~log
        ([ "build"; "--corpus"; corpus_file; "--prefix"; prefix; "--scheme"; spec.scheme; "--mss"; "3";
           "--format"; "sidx4" ]
        @ if spec.shards > 1 then [ "--shards"; string_of_int spec.shards ] else [])
    with
    | () -> attempt
    | exception Failure why when attempt < 3 ->
        Printf.printf "# %s: warning: %s; building again\n" spec.name
          (String.concat " " (String.split_on_char '\n' why));
        build (attempt + 1)
  in
  let builds = build 1 in
  let t2 = now () in
  let server =
    if spec.wire then Some (Proc.start_server ~dir (server_args spec prefix))
    else
      match Proc.capture [ "query"; "--prefix"; prefix; "S(NP)(VP)" ] with
      | 0, _ -> None
      | code, _ -> failwith (Printf.sprintf "first CLI query exited %d" code)
  in
  let t3 = now () in
  { dir; prefix; corpus_file; server; gen_s = ms (t1 - t0) /. 1e3; build_s = ms (t2 - t1) /. 1e3;
    ready_s = ms (t3 - t2) /. 1e3; builds }

(* [opts.setups] set-ups in fresh directories; all but the last are torn
   down.  Returns the kept one and all of them. *)
let setup (spec : spec) opts work =
  let rec go i acc =
    let s = setup_once spec opts (Filename.concat work (Printf.sprintf "setup%d" i)) in
    if i + 1 < opts.setups then begin
      Option.iter Proc.stop_server s.server;
      rm_rf s.dir;
      go (i + 1) (s :: acc)
    end
    else (s, List.rev (s :: acc))
  in
  go 0 []

(* ---- query mix and oracle ----------------------------------------------- *)

type mix = {
  texts : string array;  (** distinct queries *)
  asts : Si_query.Ast.t array;
  answers : (int * int) list array;  (** the oracle's, per query *)
}

(* the brute-force answers over [docs], on two domains *)
let oracle (docs : Annotated.t array) asts =
  let n = Array.length asts in
  let part lo hi = Array.init (hi - lo) (fun i -> Si_query.Matcher.corpus_roots docs asts.(lo + i)) in
  let d = Domain.spawn (fun () -> part (n / 2) n) in
  let a = part 0 (n / 2) in
  Array.append a (Domain.join d)

(* The workload's distinct queries: a pool six times the mix (rich
   enough to fill the rarest, heaviest bucket), answered by the oracle,
   then stratified over selectivity.  Traffic picks among them
   uniformly. *)
let make_mix (spec : spec) opts ~docs ~held_out =
  let pool =
    Querygen.generate ~seed:opts.seed ~corpus:docs ~held_out ~count:(6 * spec.nqueries)
      ~min_size:spec.min_size ~max_size:spec.max_size
      ~accept_class:(fun c -> (not spec.selective) || String.contains c 'L')
  in
  let asts = Array.map (fun (g : Querygen.t) -> Si_query.Parser.parse_exn g.Querygen.text) pool in
  let answers = oracle docs asts in
  let matches = Array.map (fun a -> if List.length a < spec.min_matches then -1 else List.length a) answers in
  let chosen = Array.of_list (Querygen.stratify ~count:spec.nqueries matches) in
  let buckets = Array.make (Array.length Querygen.edges + 1) 0 in
  Array.iter
    (fun i ->
      let b = Querygen.bucket (List.length answers.(i)) in
      buckets.(b) <- buckets.(b) + 1)
    chosen;
  let note =
    Printf.sprintf "mix: %d queries from a pool of %d, per selectivity bucket %s, %d with //"
      (Array.length chosen) (Array.length pool)
      (String.concat "/" (Array.to_list (Array.map string_of_int buckets)))
      (Array.fold_left (fun acc i -> if pool.(i).Querygen.descendant then acc + 1 else acc) 0 chosen)
  in
  ( {
      texts = Array.map (fun i -> pool.(i).Querygen.text) chosen;
      asts = Array.map (fun i -> asts.(i)) chosen;
      answers = Array.map (fun i -> answers.(i)) chosen;
    },
    note )

(* Poisson arrivals at [rate] per second over [t0, t1), in ns *)
let poisson rng ~rate ~t0 ~t1 =
  let rec go t acc =
    let t = t + sec (-.log (1. -. Si_grammar.Prng.float rng) /. rate) in
    if t >= t1 then List.rev acc else go t (t :: acc)
  in
  if rate <= 0. then [] else go t0 []

let query_line (spec : spec) mix i =
  "QUERY " ^ mix.texts.(i) ^ if spec.count_only then " count_only=1\n" else "\n"

(* ---- correctness gate (untimed) ----------------------------------------- *)

let parse_matches reply =
  String.split_on_char '\n' reply
  |> List.filter_map (fun l -> Scanf.sscanf_opt l "M %d %d%!" (fun t n -> (t, n)))

(* every distinct query's wire answer against the oracle: the exact match
   list for full bodies, the count under count_only *)
let gate_wire (spec : spec) port mix =
  let c = Wire.connect port in
  Array.iteri
    (fun i text ->
      match Wire.request c (query_line spec mix i) ~query:true with
      | None -> incorrect "%s: no reply to %s" spec.name text
      | Some reply ->
          let status = List.hd (String.split_on_char '\n' reply) in
          let want = mix.answers.(i) in
          if Wire.field status "n" <> Some (string_of_int (List.length want)) then
            incorrect "%s: %s answered %S, the oracle has %d matches" spec.name text status
              (List.length want);
          if (not spec.count_only) && parse_matches reply <> want then
            incorrect "%s: %s match list differs from the oracle" spec.name text)
    mix.texts;
  Wire.close c

(* the CLI replays the written mix in one process ([query --queries]);
   its per-query counts must equal the oracle's *)
let gate_cli (spec : spec) prefix mix mix_file =
  match Proc.capture [ "query"; "--prefix"; prefix; "--queries"; mix_file ] with
  | 0, out ->
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
      if List.length lines <> Array.length mix.texts then
        incorrect "%s: the CLI answered %d of %d queries" spec.name (List.length lines)
          (Array.length mix.texts);
      List.iteri
        (fun i l ->
          if l <> Printf.sprintf "%s\t%d" mix.texts.(i) (List.length mix.answers.(i)) then
            incorrect "%s: CLI answered %S, the oracle has %d matches" spec.name l
              (List.length mix.answers.(i)))
        lines
  | code, _ -> incorrect "%s: the CLI replay of the mix exited %d" spec.name code

(* ---- STATS -------------------------------------------------------------- *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  queries : int;
  busy_ms : float;
  rejected : int;
  checkpoints : int;
  generation : int;
}

(* over an idle connection: each worker serves one connection at a time,
   so a third connection would queue behind the two the load uses *)
let fetch_stats c =
  match Wire.request c "STATS\n" ~query:false with
  | Some s when String.starts_with ~prefix:"OK " s ->
      let j = Json.parse (String.trim (String.sub s 3 (String.length s - 3))) in
      let get path v =
        List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some v) path
        |> Fun.flip Option.bind Json.to_num |> Option.value ~default:0.
      in
      let workers =
        Option.bind (Json.member "serving" j) (Json.member "workers") |> Option.fold ~none:[] ~some:Json.to_list
      in
      let wsum path = int_of_float (List.fold_left (fun acc w -> acc +. get path w) 0. workers) in
      let serving k = int_of_float (get ("serving" :: k) j) in
      {
        hits = wsum [ "cache"; "hits" ];
        misses = wsum [ "cache"; "misses" ];
        evictions = wsum [ "cache"; "evictions" ];
        queries = wsum [ "queries" ];
        busy_ms = List.fold_left (fun acc w -> acc +. get [ "busy_ms" ] w) 0. workers;
        rejected =
          serving [ "rejected"; "overloaded" ] + serving [ "rejected"; "quota" ]
          + serving [ "rejected"; "bad_request" ];
        checkpoints = serving [ "wal"; "checkpoints" ];
        generation = serving [ "swap"; "generation" ];
      }
  | _ -> failwith "STATS failed"

(* ---- traffic ------------------------------------------------------------ *)

(* What a run's traffic left for the metrics: end-to-end and front-end
   figures, plus the per-call detail the CLI's per-layer metrics need
   after the replay. *)
type traffic = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** throughput, latency, rss, and the workload's extras *)
  front : metric list;  (** serve/eval/cache per-layer figures *)
  samples : (int * float) list;
      (** per answered query: its index and the program-side ms — the
          server's us= on the wire, the whole call on the CLI *)
  user_bytes : int;  (** corpus Penn bytes + acknowledged insert bytes *)
  notes : string list;
}

let warn_samples (spec : spec) opts lat =
  if List.length lat < opts.min_samples then
    Printf.printf "# %s: warning: percentiles rest on %d samples, fewer than %d\n" spec.name
      (List.length lat) opts.min_samples

let is_query (op : Wire.op) = match op.kind with `Query _ -> true | `Insert _ -> false

let record_spans (op : Wire.op) =
  (* even request ids are traced, odd ones are the untraced control *)
  if op.id mod 2 = 0 && op.recv > 0 then begin
    let root = Trace.record ~req:op.id (if is_query op then "request.query" else "request.insert") op.due op.recv in
    ignore (Trace.record ~parent:root ~req:op.id "wire.wait" op.due op.sent);
    let rtt = Trace.record ~parent:root ~req:op.id "wire.rtt" op.sent op.recv in
    if is_query op && op.ok then begin
      let eval = int_of_float (op.us *. 1e3) in
      ignore (Trace.record ~parent:rtt ~req:op.id "server.eval" op.sent (op.sent + eval));
      ignore (Trace.record ~parent:rtt ~req:op.id "serve.wire" (op.sent + eval) op.recv)
    end
  end

(* Two connections, fed three ways after a warm-up closed loop on both:
   serve-warm runs a closed loop (throughput) and then an open loop at
   [rate] (latency, timed from each request's due instant); serve-cold
   runs a closed loop throughout; serve-ingest INSERTs back to back on
   one connection (the operation measured) while the other sends
   queries open loop at [rate]. *)
let wire_traffic (spec : spec) opts (s : setup) mix ~corpus_bytes ~(held_out : Tree.t array) ~base =
  let srv = Option.get s.server in
  gate_wire spec srv.Proc.port mix;
  let w, c, o = phases opts in
  let rng = Si_grammar.Prng.create (opts.seed + 11) in
  let pick () = `Query (Si_grammar.Prng.int rng (Array.length mix.texts)) in
  (* the writer cycles through the held-out trees; a tree inserted twice
     is just two equal trees *)
  let inserted = ref 0 in
  let next_insert () =
    incr inserted;
    `Insert (!inserted mod Array.length held_out)
  in
  let a = Wire.connect srv.Proc.port and b = Wire.connect srv.Proc.port in
  let line = function
    | `Query i -> query_line spec mix i
    | `Insert i -> "INSERT " ^ Tree.to_string held_out.(i) ^ "\n"
  in
  (* the generator's thread outranks the server it measures, so the
     server cannot delay the schedule; children still start at normal
     priority.  At normal priority the server's threads hold an open
     loop's lateness p99 at 2-3 ms, so without the privilege such a run
     cannot be valid and is refused. *)
  if (not (Proc.realtime true)) && spec.rate > 0. then
    failwith "SCHED_FIFO is not permitted, so the open-loop generator cannot keep its schedule";
  let t = now () in
  ignore (Wire.run ~line [ Wire.lane ~closed_until:(t + sec w) ~closed_phase:Wire.Warm ~next_closed:pick [ a; b ] ]);
  let s0 = fetch_stats a and io0 = Proc.write_bytes srv.Proc.pid in
  let t0 = now () in
  let t_end = t0 + sec (c +. o) in
  let open_queries from =
    Array.of_list (List.map (fun d -> (d, pick ())) (poisson rng ~rate:spec.rate ~t0:from ~t1:t_end))
  in
  let lanes =
    if spec.writer then
      [ Wire.lane ~schedule:(open_queries t0) [ a ]; Wire.lane ~closed_until:t_end ~next_closed:next_insert [ b ] ]
    else if spec.rate > 0. then
      let t_open = t0 + sec c in
      [ Wire.lane ~closed_until:t_open ~next_closed:pick ~schedule:(open_queries t_open) [ a; b ] ]
    else [ Wire.lane ~closed_until:t_end ~next_closed:pick [ a; b ] ]
  in
  let on_reply = if opts.trace then record_spans else fun _ -> () in
  let ops = Wire.run ~on_reply ~line lanes in
  ignore (Proc.realtime false);
  let s1 = fetch_stats a and io1 = Proc.write_bytes srv.Proc.pid in
  let rss_kib = Proc.peak_rss_kib srv.Proc.pid in
  Wire.close a;
  Wire.close b;
  Proc.stop_server srv;
  let queries, inserts = List.partition is_query ops in
  let good = List.filter (fun (op : Wire.op) -> op.ok) in
  let latency ops = List.map (fun (op : Wire.op) -> ms (op.recv - op.due)) (good ops) in
  let phase p = List.filter (fun (op : Wire.op) -> op.phase = p) in
  (* the measured operation: its closed loop gives the throughput, its
     open loop (if any) the latency *)
  let measured = if spec.writer then inserts else queries in
  let closed = phase Wire.Closed measured in
  let timed = match phase Wire.Open measured with [] -> closed | l -> l in
  let lat = latency timed in
  warn_samples spec opts lat;
  let closed_end = List.fold_left (fun acc (op : Wire.op) -> max acc op.recv) t0 closed in
  let lateness = List.map (fun (op : Wire.op) -> ms (op.noticed - op.due)) (phase Wire.Open ops) in
  let notes = ref [] in
  if lateness <> [] then begin
    let late_p99 = q lateness 0.99 in
    (* a generator far behind its schedule no longer measures the server.
       At SCHED_FIFO its p99 lateness is about 0.2 ms, but host stalls the
       guest cannot see have pushed it past 1 ms, hence the 5 ms limit *)
    if late_p99 > 5.0 then incorrect "%s: generator lateness p99 %.3f ms exceeds 5 ms" spec.name late_p99;
    notes :=
      [
        Printf.sprintf "generator lateness p99 %.3f ms, max %.3f ms, over %d open-loop requests" late_p99
          (List.fold_left Float.max 0. lateness) (List.length lateness);
      ]
  end;
  let acked =
    List.filter_map (fun (op : Wire.op) -> match op.kind with `Insert i when op.ok -> Some i | _ -> None) inserts
  in
  let inserted_bytes =
    List.fold_left (fun acc i -> acc + String.length (Tree.to_string held_out.(i)) + 1) 0 acked
  in
  (* durability: every acknowledged insert is there after a restart, and
     the reopened index answers as the oracle over base + acked trees *)
  if spec.writer then begin
    let h =
      match Si_core.Si.open_any s.prefix with
      | Ok h -> h
      | Error e -> incorrect "%s: reopen failed: %s" spec.name (Si_core.Si_error.to_string e)
    in
    let total =
      match h with
      | Si_core.Si.Single si -> (Si_core.Si.stats si).Si_core.Builder.trees + Si_core.Si.pending si
      | Si_core.Si.Sharded sh -> Si_core.Si.sharded_total sh
    in
    if total <> base + List.length acked then
      incorrect "%s: the reopened index holds %d trees, not %d base + %d acked" spec.name total base
        (List.length acked);
    let acked_docs = Array.of_list (List.map (fun i -> Annotated.of_tree held_out.(i)) acked) in
    let extra = oracle acked_docs mix.asts in
    Array.iteri
      (fun i text ->
        let want = mix.answers.(i) @ List.map (fun (t, n) -> (t + base, n)) extra.(i) in
        match Replay.query_any h text with
        | got when got = want -> ()
        | got ->
            incorrect "%s: after restart %s has %d matches, the oracle %d" spec.name text
              (List.length got) (List.length want)
        | exception Failure e -> incorrect "%s: after restart %s failed: %s" spec.name text e)
      mix.texts;
    notes :=
      Printf.sprintf "durability: %d acknowledged inserts present after restart, %d answers = oracle"
        (List.length acked) (Array.length mix.texts)
      :: !notes
  end;
  let all = phase Wire.Closed ops @ phase Wire.Open ops in
  let e2e =
    [
      metric "ops_per_s" (float_of_int (List.length (good closed)) /. (ms (closed_end - t0) /. 1e3)) "1/s"
        (List.length (good closed));
      metric "p50_ms" (q lat 0.5) "ms" (List.length lat);
      metric "p95_ms" (q lat 0.95) "ms" (List.length lat);
      metric "p99_ms" (q lat 0.99) "ms" (List.length lat);
      metric "rss_mb" (float_of_int rss_kib /. 1024.) "MiB" 1;
    ]
    @
    if spec.writer then
      let q_lat = latency queries in
      [
        metric "query_p50_ms" (q q_lat 0.5) "ms" (List.length q_lat);
        metric "query_p99_ms" (q q_lat 0.99) "ms" (List.length q_lat);
        metric "write_amp" (float_of_int (io1 - io0) /. float_of_int (max 1 inserted_bytes)) "ratio"
          (List.length acked);
      ]
    else []
  in
  (* front end, from the wire itself and the server's STATS deltas; a
     generation swap resets the per-worker cache counters *)
  let answered = good (phase Wire.Closed queries @ phase Wire.Open queries) in
  let server_ms = List.map (fun (op : Wire.op) -> op.us /. 1e3) answered in
  let d f = if s1.generation = s0.generation then f s1 - f s0 else f s1 in
  let lookups = d (fun s -> s.hits) + d (fun s -> s.misses) in
  let waits = List.map (fun (op : Wire.op) -> ms (op.sent - op.due)) (good (phase Wire.Open queries)) in
  let ins_lat = latency inserts in
  let front =
    [
      metric "serve.wire_ms.p50"
        (q (List.map (fun (op : Wire.op) -> ms (op.recv - op.sent) -. (op.us /. 1e3)) answered) 0.5)
        "ms" (List.length answered);
      metric "serve.resp_bytes.mean"
        (Stat.mean (List.map (fun (op : Wire.op) -> float_of_int op.bytes) answered))
        "bytes" (List.length answered);
      metric "serve.worker_busy_frac" ((s1.busy_ms -. s0.busy_ms) /. (2. *. ms (t_end - t0))) "fraction" 2;
      metric "serve.rejected"
        (float_of_int (s1.rejected - s0.rejected + List.length (List.filter (fun (op : Wire.op) -> op.recv = 0) all)))
        "count" (List.length all);
      metric "eval.server_ms.p50" (q server_ms 0.5) "ms" (List.length server_ms);
      metric "eval.server_ms.p99" (q server_ms 0.99) "ms" (List.length server_ms);
      metric "cache.hit_ratio"
        (if lookups = 0 then 1. else float_of_int (d (fun s -> s.hits)) /. float_of_int lookups)
        "ratio" lookups;
      metric "cache.evictions_per_query"
        (float_of_int (d (fun s -> s.evictions)) /. float_of_int (max 1 (s1.queries - s0.queries)))
        "count" (s1.queries - s0.queries);
    ]
    @ (if waits = [] then [] else [ metric "serve.queue_ms.p99" (q waits 0.99) "ms" (List.length waits) ])
    @
    if spec.writer then
      [
        metric "checkpoint.count" (float_of_int (s1.checkpoints - s0.checkpoints)) "count" 1;
        metric "checkpoint.stall_ms.max" (List.fold_left Float.max 0. ins_lat) "ms" (List.length ins_lat);
      ]
    else []
  in
  if opts.trace then begin
    let even, odd = List.partition (fun (op : Wire.op) -> op.id mod 2 = 0) (good timed) in
    let p50 ops = q (latency ops) 0.5 in
    notes :=
      Printf.sprintf
        "tracing overhead: p50 %.4f ms traced vs %.4f ms untraced (%+.4f ms; even vs odd request ids)"
        (p50 even) (p50 odd) (p50 even -. p50 odd)
      :: !notes
  end;
  {
    attempted = List.length all;
    failed = List.length (List.filter (fun (op : Wire.op) -> not op.ok) all);
    e2e;
    front;
    samples =
      List.filter_map
        (fun (op : Wire.op) -> match op.kind with `Query i -> Some (i, op.us /. 1e3) | `Insert _ -> None)
        answered;
    user_bytes = corpus_bytes + inserted_bytes;
    notes = List.rev !notes;
  }

(* One [si_tool query --prefix P Q] process at a time, for the whole
   measured time (closed loop, one caller). *)
let cli_traffic (spec : spec) opts (s : setup) mix ~corpus_bytes ~mix_file =
  gate_cli spec s.prefix mix mix_file;
  let w, c, o = phases opts in
  let rng = Si_grammar.Prng.create (opts.seed + 11) in
  let call () =
    let i = Si_grammar.Prng.int rng (Array.length mix.texts) in
    let t0 = now () in
    let code, out = Proc.capture [ "query"; "--prefix"; s.prefix; mix.texts.(i) ] in
    let t1 = now () in
    (i, t0, t1, code, String.length out)
  in
  let t = now () in
  while now () < t + sec w do
    ignore (call ())
  done;
  let t0 = now () in
  let rec go acc = if now () < t0 + sec (c +. o) then go (call () :: acc) else List.rev acc in
  let calls = go [] in
  let t_end = List.fold_left (fun acc (_, _, t1, _, _) -> max acc t1) t0 calls in
  let ok = List.filter (fun (_, _, _, code, _) -> code = 0) calls in
  let lat = List.map (fun (_, a, b, _, _) -> ms (b - a)) ok in
  warn_samples spec opts lat;
  let wall = ms (t_end - t0) in
  {
    attempted = List.length calls;
    failed = List.length calls - List.length ok;
    e2e =
      [
        metric "ops_per_s" (float_of_int (List.length ok) /. (wall /. 1e3)) "1/s" (List.length ok);
        metric "p50_ms" (q lat 0.5) "ms" (List.length lat);
        metric "p95_ms" (q lat 0.95) "ms" (List.length lat);
        metric "p99_ms" (q lat 0.99) "ms" (List.length lat);
      ];
    front =
      [
        metric "serve.resp_bytes.mean"
          (Stat.mean (List.map (fun (_, _, _, _, b) -> float_of_int b) ok))
          "bytes" (List.length ok);
        metric "serve.worker_busy_frac" (List.fold_left ( +. ) 0. lat /. wall) "fraction" (List.length lat);
        metric "serve.rejected" (float_of_int (List.length calls - List.length ok)) "count" (List.length calls);
      ];
    samples = List.map (fun (i, a, b, _, _) -> (i, ms (b - a))) ok;
    user_bytes = corpus_bytes;
    notes = [];
  }

(* in-process time of each replayed query as the CLI pays it: open plus
   the first query on the fresh handle *)
let inproc_ms (r : Replay.result) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (pq : Replay.per_query) -> Hashtbl.replace tbl pq.Replay.text (r.Replay.open_ms +. pq.Replay.first_ms))
    r.Replay.queries;
  tbl

(* The CLI's remaining front-end figures, against the replay: a call is
   process start + open + first query, so the share of a call the
   in-process open + first query does not explain is the process
   boundary. *)
let cli_front (tr : traffic) (r : Replay.result) mix =
  let inproc = inproc_ms r in
  let explained =
    List.filter_map (fun (i, call) -> Option.map (fun t -> (call, t)) (Hashtbl.find_opt inproc mix.texts.(i))) tr.samples
  in
  let server = List.map snd explained in
  let from_replay name as_ =
    let _, v, u, n = List.find (fun (m, _, _, _) -> m = name) r.Replay.metrics in
    metric as_ v u n
  in
  tr.front
  @ [
      metric "serve.wire_ms.p50" (q (List.map (fun (c, t) -> c -. t) explained) 0.5) "ms" (List.length explained);
      metric "eval.server_ms.p50" (q server 0.5) "ms" (List.length server);
      metric "eval.server_ms.p99" (q server 0.99) "ms" (List.length server);
      from_replay "replay.cache_hit_ratio" "cache.hit_ratio";
      from_replay "replay.cache_evictions_per_query" "cache.evictions_per_query";
    ]

(* The replay's breakdown against the program's own time for the same
   queries: on the wire, warm evaluation plus the decode share the cache
   missed, against us=; on the CLI, spawn + open + first query against
   the whole call. *)
let breakdown_note (spec : spec) (tr : traffic) (r : Replay.result) mix ~spawn_ms ~hit_ratio =
  let measured = Hashtbl.create 64 in
  List.iter
    (fun (i, t) ->
      let k = mix.texts.(i) in
      Hashtbl.replace measured k (t :: Option.value ~default:[] (Hashtbl.find_opt measured k)))
    tr.samples;
  let pairs =
    List.filter_map
      (fun (pq : Replay.per_query) ->
        Option.map
          (fun ts ->
            let model =
              if spec.wire then pq.Replay.warm_ms +. ((1. -. hit_ratio) *. pq.Replay.decode_ms)
              else spawn_ms +. r.Replay.open_ms +. pq.Replay.first_ms
            in
            (model, Stat.mean ts))
          (Hashtbl.find_opt measured pq.Replay.text))
      r.Replay.queries
  in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0. pairs in
  let ratio = sum fst /. sum snd in
  Printf.sprintf
    "replay breakdown: %.3f ms modeled vs %.3f ms measured per query over %d queries, ratio %.2f \
     (tolerance 0.5..2.0: %s)"
    (sum fst /. float_of_int (List.length pairs))
    (sum snd /. float_of_int (List.length pairs))
    (List.length pairs) ratio
    (if ratio >= 0.5 && ratio <= 2.0 then "within" else "outside")

(* The traced wire spans must add up exactly: wire.wait + wire.rtt is
   the request's latency, server.eval + serve.wire its round trip. *)
let decomposition_note () =
  let by = Hashtbl.create 4096 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace by (sp.Trace.req, sp.Trace.name) sp) !Trace.spans;
  let dur (sp : Trace.span) = sp.Trace.stop - sp.Trace.start in
  let get req name = Hashtbl.find_opt by (req, name) in
  let checked = ref 0 and exact = ref 0 in
  Hashtbl.iter
    (fun (req, name) root ->
      if name = "request.query" || name = "request.insert" then begin
        incr checked;
        match (get req "wire.wait", get req "wire.rtt") with
        | Some w, Some r when dur w + dur r = dur root -> (
            match (get req "server.eval", get req "serve.wire") with
            | Some e, Some x -> if dur e + dur x = dur r then incr exact
            | _ -> incr exact)
        | _ -> ()
      end)
    by;
  Printf.sprintf "wire decomposition: wait + rtt = latency and eval + wire = rtt exactly on %d of %d traced requests"
    !exact !checked

(* ---- one run of one workload -------------------------------------------- *)

type outcome = { attempted : int; failed : int; metrics : metric list; notes : string list }

let subset n xs =
  let len = Array.length xs in
  if len <= n then xs else Array.init n (fun i -> xs.(i * len / n))

let find name ms = List.find (fun m -> m.name = name) ms

let run_workload (spec : spec) opts ~work =
  let s, setups = setup spec opts work in
  let docs = Array.of_list (List.map Annotated.of_tree (Penn.read_file s.corpus_file)) in
  let held_n = 2000 + opts.wal_inserts in
  let held_out = Array.of_list (Si_grammar.Generator.corpus ~seed:(opts.seed + 1) ~n:held_n ()) in
  let mix, mix_note = make_mix spec opts ~docs ~held_out:(Array.map Annotated.of_tree held_out) in
  let mix_file = Filename.concat work (spec.name ^ ".queries") in
  Out_channel.with_open_bin mix_file (fun oc ->
      Array.iter (fun t -> output_string oc (t ^ "\n")) mix.texts);
  let corpus_bytes = (Unix.stat s.corpus_file).Unix.st_size in
  let tr =
    if spec.wire then
      wire_traffic spec opts s mix ~corpus_bytes ~held_out ~base:(Array.length docs)
    else cli_traffic spec opts s mix ~corpus_bytes ~mix_file
  in
  let m f = Stat.median (List.map f setups) and k = List.length setups in
  let e2e =
    (metric "setup_s" (m (fun s -> s.gen_s +. s.build_s +. s.ready_s)) "s" k :: tr.e2e)
    @ [
        metric "space_amp" (float_of_int (prefix_bytes s.prefix) /. float_of_int tr.user_bytes) "ratio" 1;
        metric "error_rate" (float_of_int tr.failed /. float_of_int (max 1 tr.attempted)) "fraction"
          tr.attempted;
      ]
  in
  let layer, notes =
    if not opts.trace then ([], [])
    else begin
      let member_prefix =
        if spec.shards > 1 then Si_core.Shardmap.shard_prefix s.prefix 0 else s.prefix
      in
      let scratch = Filename.concat work "walcopy" in
      mkdir_p scratch;
      let r =
        Replay.run ~prefix:s.prefix ~member_prefix ~scratch:(Filename.concat scratch "ix")
          ~queries:(subset opts.replay_queries mix.texts)
          ~insert_trees:(Array.sub held_out (held_n - opts.wal_inserts) opts.wal_inserts)
      in
      let front = if spec.wire then tr.front else cli_front tr r mix in
      let spawn =
        List.init 10 (fun _ ->
            let t0 = now () in
            ignore (Proc.capture [ "--version" ]);
            ms (now () - t0))
      in
      let hit_ratio = (find "cache.hit_ratio" front).value in
      ( front
        @ List.map (fun (n, v, u, c) -> metric n v u c) r.Replay.metrics
        @ [
            metric "cli.spawn_ms.p50" (Stat.median spawn) "ms" (List.length spawn);
            metric "setup.gen_s" (m (fun s -> s.gen_s)) "s" k;
            metric "setup.build_s" (m (fun s -> s.build_s)) "s" k;
            metric "setup.ready_s" (m (fun s -> s.ready_s)) "s" k;
          ],
        [
          breakdown_note spec tr r mix ~spawn_ms:(Stat.median spawn) ~hit_ratio;
          (if spec.wire then decomposition_note ()
           else "tracing overhead: none, the CLI traffic records no spans (only the replay does)");
        ] )
    end
  in
  let builds = List.fold_left (fun acc s -> acc + s.builds) 0 setups in
  {
    attempted = tr.attempted + builds;
    failed = tr.failed + builds - List.length setups;
    metrics = e2e @ layer;
    notes = (mix_note :: tr.notes) @ notes;
  }

(* ---- BENCHMARK.json, results and traces --------------------------------- *)

type declared = { dname : string; dunit : string; better : string; bound : float option }

(* the metrics BENCHMARK.json declares, by section *)
let declared section =
  let j = Json.of_file "BENCHMARK.json" in
  Json.member section j |> Option.fold ~none:[] ~some:Json.to_list
  |> List.map (fun m ->
         let str k = Option.bind (Json.member k m) Json.to_str |> Option.value ~default:"" in
         { dname = str "name"; dunit = str "unit"; better = str "better";
           bound = Option.bind (Json.member "bound" m) Json.to_num })

(* The result line: exactly the declared metrics of the run's kind. *)
let result_line (o : outcome) ~trace =
  let metrics =
    List.map
      (fun d ->
        match List.find_opt (fun m -> m.name = d.dname) o.metrics with
        | None -> failwith ("BENCHMARK.json names a metric this run did not measure: " ^ d.dname)
        | Some m when not (Float.is_finite m.value) -> failwith (m.name ^ " has no finite value")
        | Some m when m.unit <> d.dunit ->
            failwith (Printf.sprintf "%s is measured in %s, BENCHMARK.json says %s" m.name m.unit d.dunit)
        | Some m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit) ]))
      (declared (if trace then "per_layer" else "end_to_end"))
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool true);
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ("metrics", J.Obj metrics);
       ])

let trace_path out workload = Filename.remove_extension out ^ "." ^ workload ^ ".trace.json"

(* result file for [compare]: every run's metrics per workload *)
let write_results opts runs =
  let by_workload =
    List.sort_uniq compare (List.map (fun (w, _, _) -> w) runs)
    |> List.map (fun w ->
           let mine = List.filter (fun (w', _, _) -> w' = w) runs in
           let _, _, (first : outcome) = List.hd mine in
           ( w,
             J.Obj
               [
                 ("units", J.Obj (List.map (fun m -> (m.name, J.Str m.unit)) first.metrics));
                 ( "runs",
                   J.Arr
                     (List.map
                        (fun (_, seed, (o : outcome)) ->
                          J.Obj
                            [
                              ("seed", J.Int seed);
                              ("metrics", J.Obj (List.map (fun m -> (m.name, J.Float m.value)) o.metrics));
                            ])
                        mine) );
               ] ))
  in
  Json.to_file opts.out
    (J.Obj
       [
         ( "meta",
           J.Obj
             [
               ("seconds", J.Float opts.seconds);
               ("n_trees", J.Int opts.n_trees);
               ("trace", J.Bool opts.trace);
               ("nproc", J.Int (Domain.recommended_domain_count ()));
             ] );
         ("workloads", J.Obj by_workload);
       ])

(* ---- --repeat: noise and bounds ------------------------------------------ *)

(* Per workload and metric: median, quartiles, relative spread and the
   bound it supports — max(3 %, 2 x the largest relative deviation from
   the median); 1 % floor for counts that repeat exactly. *)
let print_calibration runs =
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _) -> w) runs) in
  List.iter
    (fun w ->
      let mine = List.filter_map (fun (w', _, o) -> if w = w' then Some o else None) runs in
      let names = List.map (fun m -> m.name) (List.hd mine).metrics in
      Printf.printf "calibration %s over %d runs:\n" w (List.length mine);
      List.iter
        (fun name ->
          let xs = List.filter_map (fun (o : outcome) -> Option.map (fun m -> m.value) (List.find_opt (fun m -> m.name = name) o.metrics)) mine in
          let med = Stat.median xs in
          let q1, q3 = Stat.quartiles xs in
          let dev = List.fold_left (fun acc x -> Float.max acc (Float.abs (x -. med))) 0. xs in
          let rel = if med = 0. then 0. else dev /. Float.abs med in
          let floor = if List.for_all (fun x -> x = med) xs then 0.01 else 0.03 in
          Printf.printf "  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %.4f maxdev %.4f bound %.3f%s\n"
            name med q1 q3 (Stat.rel_iqr xs) rel (Float.max floor (2. *. rel))
            (if w = "serve-warm" && name = "ops_per_s" then
               Printf.sprintf "  (open-loop rate at a third: %.0f/s)" (10. *. Float.round (med /. 30.))
             else ""))
        names)
    workloads

(* ---- compare ------------------------------------------------------------- *)

(* One verdict per workload and metric: better, same, worse, or
   unresolved when either side's spread exceeds the bound (unless every
   run of B beats every run of A).  Bounds come from BENCHMARK.json;
   metrics it does not bound use 10 %. *)
let compare_files a b =
  let load f =
    let j = Json.of_file f in
    Json.member "workloads" j |> Option.fold ~none:[] ~some:(function J.Obj kv -> kv | _ -> [])
  in
  let runs w name =
    Option.bind (Json.member "runs" w) (fun r -> Some (Json.to_list r))
    |> Option.value ~default:[]
    |> List.filter_map (fun run -> Option.bind (Json.member "metrics" run) (Json.member name) |> Fun.flip Option.bind Json.to_num)
  in
  let decl = (try declared "end_to_end" @ declared "per_layer" with Sys_error _ -> []) in
  let wa = load a and wb = load b in
  let worse_count = ref 0 in
  List.iter
    (fun (wname, ja) ->
      match List.assoc_opt wname wb with
      | None -> ()
      | Some jb ->
          let names =
            match Json.member "units" ja with Some (J.Obj kv) -> List.map fst kv | _ -> []
          in
          List.iter
            (fun name ->
              let xa = runs ja name and xb = runs jb name in
              if xa <> [] && xb <> [] then begin
                let d = List.find_opt (fun d -> d.dname = name) decl in
                let bound = Option.value ~default:0.10 (Option.bind d (fun d -> d.bound)) in
                let higher = match d with Some d -> d.better = "higher" | None -> name = "ops_per_s" in
                let ma = Stat.median xa and mb = Stat.median xb in
                let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
                let worse_by = if higher then -.change else change in
                let beats x y = if higher then x > y else x < y in
                let b_dominates = List.for_all (fun y -> List.for_all (fun x -> beats y x) xa) xb in
                let spread = Float.max (Stat.rel_iqr xa) (Stat.rel_iqr xb) in
                let verdict =
                  if spread > bound && not b_dominates then "unresolved"
                  else if worse_by > bound then (incr worse_count; "worse")
                  else if worse_by < -.bound then "better"
                  else "same"
                in
                Printf.printf "%-14s %-32s A %-12.6g B %-12.6g B-A %+7.2f%% bound %5.1f%% spread %5.1f%%  %s\n"
                  wname name ma mb (100. *. change) (100. *. bound) (100. *. spread) verdict
              end)
            names)
    wa;
  if !worse_count > 0 then exit 1

(* ---- main ---------------------------------------------------------------- *)

let usage =
  "usage: si_bench [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
  \                [--repeat N] [--smoke]\n\
  \       si_bench compare A.json B.json"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("si_bench: " ^ s); exit 2) fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "compare"; a; b ] -> compare_files a b
  | "compare" :: _ -> die "%s" usage
  | _ ->
      let args = match args with "run" :: rest -> rest | _ -> args in
      let workload = ref None and seed = ref 2012 and seconds = ref 20. and trace = ref false in
      let out = ref "_sibench/result.json" and repeat = ref 1 and smoke = ref false in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest -> workload := Some w; parse rest
        | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
        | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
        | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
        | "--out" :: f :: rest -> out := f; parse rest
        | "--repeat" :: n :: rest -> repeat := int_of_string n; parse rest
        | "--smoke" :: rest -> smoke := true; parse rest
        | a :: _ -> die "unexpected argument %s\n%s" a usage
      in
      (try parse args with Failure _ -> die "%s" usage);
      let chosen =
        match !workload with
        | None -> specs
        | Some w -> (
            match List.find_opt (fun (s : spec) -> s.name = w) specs with
            | Some s -> [ s ]
            | None -> die "unknown workload %s" w)
      in
      if not (Sys.file_exists Proc.tool) then die "%s not found (build with dune first)" Proc.tool;
      if not (Sys.file_exists "BENCHMARK.json") then die "run from the directory holding BENCHMARK.json";
      let opts =
        if !smoke then
          { seed = !seed; seconds = 3.; trace = !trace; out = !out; n_trees = 300; setups = 1;
            replay_queries = 8; wal_inserts = 8; min_samples = 1 }
        else
          { seed = !seed; seconds = !seconds; trace = !trace; out = !out; n_trees = 10_000; setups = 3;
            replay_queries = 40; wal_inserts = 48; min_samples = 1000 }
      in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      mkdir_p (Filename.dirname opts.out);
      let work = Filename.concat "_sibench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
      let cleanup () = Proc.kill_all (); rm_rf work in
      (* a single run must end well inside three minutes, whatever hangs *)
      if !repeat = 1 && List.length chosen = 1 then begin
        Sys.set_signal Sys.sigalrm
          (Sys.Signal_handle (fun _ -> prerr_endline "si_bench: run exceeded 175 s"; cleanup (); exit 1));
        ignore (Unix.alarm 175)
      end;
      Trace.enabled := opts.trace;
      let runs = ref [] and last_line = ref "" in
      (try
         for r = 0 to !repeat - 1 do
           List.iter
             (fun (spec : spec) ->
               let seed = opts.seed + r in
               let opts = { opts with seed } in
               Trace.spans := [];
               let wdir = Filename.concat work (Printf.sprintf "%s-%d" spec.name seed) in
               mkdir_p wdir;
               let o = run_workload spec opts ~work:wdir in
               rm_rf wdir;
               List.iter
                 (fun m -> Printf.printf "%s %s = %s %s (n=%d)\n" spec.name m.name (J.to_string (J.Float m.value)) m.unit m.n)
                 o.metrics;
               List.iter (fun n -> Printf.printf "# %s: %s\n" spec.name n) o.notes;
               if opts.trace then begin
                 Trace.write (trace_path opts.out spec.name);
                 Printf.printf "# %s: %d spans written to %s\n" spec.name (List.length !Trace.spans)
                   (trace_path opts.out spec.name)
               end;
               runs := (spec.name, seed, o) :: !runs;
               last_line := result_line o ~trace:opts.trace)
             chosen
         done
       with
      | Incorrect why -> prerr_endline ("si_bench: INCORRECT: " ^ why); cleanup (); exit 1
      | e -> prerr_endline ("si_bench: " ^ Printexc.to_string e); cleanup (); exit 1);
      cleanup ();
      write_results opts (List.rev !runs);
      if !repeat > 1 then print_calibration (List.rev !runs);
      print_endline !last_line
