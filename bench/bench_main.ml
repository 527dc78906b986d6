(* The performance instrument for the subtree index: a bechamel harness
   that measures, on a seeded PCFG corpus,

   - build throughput (trees/s) per coding at 1 / 2 / 4 domains,
   - on-disk SIDX4 index bytes against the in-memory postings,
   - index open time (the O(1) map) and the warm query guard,
   - per-coding query latency quantiles (bechamel samples), on both the
     serving path (block-skip streaming through a warm decode cache) and
     the full-decode reference path,
   - serving throughput (QPS) and whole-stream latency quantiles through
     [Si.query_batch] at 1 and 2 domains,

   and writes the lot as JSON (default: BENCH_SI.json in the cwd) so every
   future PR has a trajectory to compare against. *)

open Bechamel

let schemes = Si_core.Coding.[ Filter; Interval; Root_split ]
let domain_counts = [ 1; 2; 4 ]

let bench_queries =
  [ "S(NP)(VP)"; "S(NP(DT)(NN))(VP)"; "NP(DT)(NN)"; "S(//NN)"; "S(//PP(IN)(NP))" ]

(* ---- tiny JSON writer (no json dep in the container) ------------------- *)

module J = struct
  type t =
    | Obj of (string * t) list
    | Arr of t list
    | Str of string
    | Int of int
    | Float of float

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 32 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf indent = function
    | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape s))
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
        else Buffer.add_string buf "null"
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf pad;
            emit buf (indent + 2) x)
          xs;
        Buffer.add_string buf (Printf.sprintf "\n%s]" (String.make indent ' '))
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (Printf.sprintf "%s\"%s\": " pad (escape k));
            emit buf (indent + 2) v)
          kvs;
        Buffer.add_string buf (Printf.sprintf "\n%s}" (String.make indent ' '))

  let to_string t =
    let buf = Buffer.create 4096 in
    emit buf 0 t;
    Buffer.add_char buf '\n';
    Buffer.contents buf
end

(* ---- measurement helpers ----------------------------------------------- *)

let time_best ~repeat f =
  (* wall-clock best-of-n for coarse one-shot operations (build, load) *)
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeat do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let latency_quantiles ~quota ~name f =
  (* bechamel sampling: per-sample latency = monotonic-clock ns / runs *)
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let test = Test.make ~name (Staged.stage f) in
  let elt = List.hd (Test.elements test) in
  let res = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
  let samples =
    Array.map
      (fun m ->
        Measurement_raw.get ~label:"monotonic-clock" m /. Measurement_raw.run m)
      res.Benchmark.lr
  in
  Array.sort compare samples;
  ( Array.length samples,
    quantile samples 0.5,
    quantile samples 0.95,
    quantile samples 0.99 )

let file_size path = (Unix.stat path).Unix.st_size

(* benches run on files they just wrote; any Si_error here is a harness bug *)
let ok_exn = function
  | Ok v -> v
  | Error e -> failwith (Si_core.Si_error.to_string e)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  if Array.length a = 0 then Float.nan else a.(Array.length a / 2)

let commit_hash () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown")
  with _ -> "unknown"

(* ---- main --------------------------------------------------------------- *)

let () =
  let n = ref 2000 in
  let seed = ref 2012 in
  let mss = ref 3 in
  let out = ref "BENCH_SI.json" in
  let quota = ref 0.5 in
  let speclist =
    [
      ("--n", Arg.Set_int n, "corpus size in trees (default 2000)");
      ("--seed", Arg.Set_int seed, "PRNG seed (default 2012)");
      ("--mss", Arg.Set_int mss, "maximum subtree size (default 3)");
      ("--out", Arg.Set_string out, "output JSON path (default BENCH_SI.json)");
      ("--quota", Arg.Set_float quota, "bechamel per-test time quota, s (default 0.5)");
    ]
  in
  Arg.parse speclist (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_main [--n N] [--seed S] [--mss M] [--out FILE] [--quota SEC]";
  let n = !n and seed = !seed and mss = !mss and quota = !quota in

  Printf.eprintf "generating corpus: n=%d seed=%d mss=%d\n%!" n seed mss;
  let trees = Si_grammar.Generator.corpus ~seed ~n () in
  let docs = Array.of_list (List.map Si_treebank.Annotated.of_tree trees) in
  let nodes = Array.fold_left (fun a d -> a + Si_treebank.Annotated.size d) 0 docs in

  let tmp = Filename.temp_file "si_bench" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o755;
  let cleanup () =
    Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
    Unix.rmdir tmp
  in
  Fun.protect ~finally:cleanup @@ fun () ->

  (* build throughput per scheme x domains *)
  let build_entries = ref [] in
  let built = Hashtbl.create 4 in
  (* per-scheme headline numbers for the stable "summary" object *)
  let build1_s = Hashtbl.create 4 in
  let idx_bytes = Hashtbl.create 4 in
  let query_p50s = Hashtbl.create 4 in
  List.iter
    (fun scheme ->
      List.iter
        (fun domains ->
          let b, dt =
            time_best ~repeat:3 (fun () ->
                Si_core.Builder.build ~domains ~scheme ~mss docs)
          in
          if domains = 1 then begin
            Hashtbl.replace built scheme b;
            Hashtbl.replace build1_s scheme dt
          end;
          Printf.eprintf "build %-10s domains=%d: %.3fs (%.0f trees/s)\n%!"
            (Si_core.Coding.scheme_to_string scheme)
            domains dt
            (float_of_int n /. dt);
          build_entries :=
            J.Obj
              [
                ("scheme", J.Str (Si_core.Coding.scheme_to_string scheme));
                ("domains", J.Int domains);
                ("seconds", J.Float dt);
                ("trees_per_sec", J.Float (float_of_int n /. dt));
              ]
            :: !build_entries)
        domain_counts)
    schemes;

  (* index size: the SIDX4 file against the in-memory v3-packed postings
     it was written from; load: the O(1) map of that file *)
  let index_entries = ref [] in
  let load_entries = ref [] in
  List.iter
    (fun scheme ->
      let b = Hashtbl.find built scheme in
      let name = Si_core.Coding.scheme_to_string scheme in
      let p4 = Filename.concat tmp (name ^ ".idx") in
      ok_exn (Si_core.Builder.save b p4);
      Hashtbl.replace idx_bytes scheme (file_size p4);
      let s = b.Si_core.Builder.stats in
      index_entries :=
        J.Obj
          [
            ("scheme", J.Str name);
            ("keys", J.Int s.Si_core.Builder.keys);
            ("postings", J.Int s.Si_core.Builder.postings);
            ("bytes_sidx4", J.Int (file_size p4));
            ("bytes_in_memory", J.Int s.Si_core.Builder.bytes);
          ]
        :: !index_entries;
      let _, t4 = time_best ~repeat:5 (fun () -> ok_exn (Si_core.Builder.load p4)) in
      Printf.eprintf "size %-10s: sidx4=%d bytes (in-memory %d); map=%.4fs\n%!" name
        (file_size p4) s.Si_core.Builder.bytes t4;
      load_entries :=
        J.Obj [ ("scheme", J.Str name); ("sidx4_map_seconds", J.Float t4) ]
        :: !load_entries)
    schemes;

  (* open latency per coding: the raw .idx map at the Builder layer and the
     end-to-end [Si.open_] (the .trees map included).  The warm-battery
     p50s beside it are the query-latency guard: the mapped handle must
     stay within sight of the in-memory one once caches are warm. *)
  let open_entries = ref [] in
  let opened = Hashtbl.create 4 in
  List.iter
    (fun scheme ->
      let name = Si_core.Coding.scheme_to_string scheme in
      let full4 = Filename.concat tmp (name ^ "-full4") in
      let mem = Si_core.Si.build ~scheme ~mss ~trees ~prefix:full4 () in
      let _, t_idx =
        time_best ~repeat:5 (fun () ->
            ok_exn (Si_core.Builder.load (full4 ^ ".idx")))
      in
      let open4, t4 = time_best ~repeat:5 (fun () -> ok_exn (Si_core.Si.open_ full4)) in
      Hashtbl.replace opened scheme open4;
      let battery si () =
        List.iter (fun q -> ignore (ok_exn (Si_core.Si.query si q))) bench_queries
      in
      battery mem ();  (* warm both handles' caches before sampling *)
      battery open4 ();
      let _, p50_mem, _, _ =
        latency_quantiles ~quota ~name:(name ^ "/battery-memory") (battery mem)
      in
      let _, p50_4, _, _ =
        latency_quantiles ~quota ~name:(name ^ "/battery4") (battery open4)
      in
      Printf.eprintf
        "open %-10s: idx map=%.2fms full open=%.2fms; warm battery p50 \
         in-memory=%.0fus sidx4=%.0fus\n%!"
        name (1000. *. t_idx) (1000. *. t4) (p50_mem /. 1e3) (p50_4 /. 1e3);
      open_entries :=
        J.Obj
          [
            ("scheme", J.Str name);
            ("sidx4_idx_ms", J.Float (1000. *. t_idx));
            ("open_sidx4_ms", J.Float (1000. *. t4));
            ("warm_battery_p50_memory_ns", J.Float p50_mem);
            ("warm_battery_p50_sidx4_ns", J.Float p50_4);
          ]
        :: !open_entries)
    schemes;

  (* post-validation micro-bench: materializing every tree of the corpus
     from the mapped .trees store (offset read + BP scan) vs re-parsing
     the same trees from Penn bracketing — the cost filter/root-split
     validation and --sentences output pay per candidate tree *)
  let post_validate_entry =
    let prefix = Filename.concat tmp "interval-full4" in
    let store_path = prefix ^ ".trees" in
    let penn_path = Filename.concat tmp "corpus.penn" in
    Si_treebank.Penn.write_file penn_path trees;
    let _, t_store =
      time_best ~repeat:3 (fun () ->
          let st = Si_core.Treestore.open_ ~relabel:Fun.id store_path in
          for tid = 0 to Si_core.Treestore.length st - 1 do
            ignore (Si_core.Treestore.get st tid)
          done)
    in
    let _, t_parse =
      time_best ~repeat:3 (fun () ->
          List.iter
            (fun t -> ignore (Si_treebank.Annotated.of_tree t))
            (Si_treebank.Penn.read_file penn_path))
    in
    Printf.eprintf
      "post_validate: store decode %.1fus/tree, penn re-parse %.1fus/tree \
       (%.1fx) over %d trees\n%!"
      (1e6 *. t_store /. float_of_int n)
      (1e6 *. t_parse /. float_of_int n)
      (if t_store > 0. then t_parse /. t_store else Float.nan)
      n;
    J.Obj
      [
        ("trees", J.Int n);
        ("store_seconds", J.Float t_store);
        ("reparse_seconds", J.Float t_parse);
        ("store_ns_per_tree", J.Float (1e9 *. t_store /. float_of_int n));
        ("reparse_ns_per_tree", J.Float (1e9 *. t_parse /. float_of_int n));
        ( "speedup",
          J.Float (if t_store > 0. then t_parse /. t_store else Float.nan) );
      ]
  in

  (* query latency quantiles per scheme, over a freshly opened SIDX4
     prefix: the serving path (block-skip streaming, warm bounded cache)
     is the headline; the full-decode path is measured beside it as the
     reference the streaming path must not regress *)
  let query_entries = ref [] in
  let query_p95s = Hashtbl.create 4 in
  let query_p99s = Hashtbl.create 4 in
  List.iter
    (fun scheme ->
      let name = Si_core.Coding.scheme_to_string scheme in
      let si = Hashtbl.find opened scheme in
      let index = Si_core.Si.index si and corpus = Si_core.Si.corpus si in
      let cache = Si_core.Cursor.create_cache () in
      List.iter
        (fun qstr ->
          let q = Si_query.Parser.parse_exn qstr in
          let matches = Si_core.Eval.run_exn ~index ~corpus ~cache q in
          let samples, p50, p95, p99 =
            latency_quantiles ~quota ~name:(name ^ "/" ^ qstr) (fun () ->
                Si_core.Eval.run_exn ~index ~corpus ~cache q)
          in
          let _, p50_full, _, _ =
            latency_quantiles ~quota ~name:(name ^ "/full/" ^ qstr) (fun () ->
                Si_core.Eval.run_exn ~index ~corpus q)
          in
          let push tbl v =
            Hashtbl.replace tbl scheme
              (v :: Option.value ~default:[] (Hashtbl.find_opt tbl scheme))
          in
          push query_p50s p50;
          push query_p95s p95;
          push query_p99s p99;
          Printf.eprintf
            "query %-10s %-22s: %d matches, p50=%.1fus p99=%.1fus \
             full-decode p50=%.1fus (%d samples)\n%!"
            name qstr (List.length matches) (p50 /. 1e3) (p99 /. 1e3)
            (p50_full /. 1e3) samples;
          query_entries :=
            J.Obj
              [
                ("scheme", J.Str name);
                ("query", J.Str qstr);
                ("matches", J.Int (List.length matches));
                ("samples", J.Int samples);
                ("p50_ns", J.Float p50);
                ("p95_ns", J.Float p95);
                ("p99_ns", J.Float p99);
                ("p50_full_decode_ns", J.Float p50_full);
              ]
            :: !query_entries)
        bench_queries)
    schemes;

  (* serving throughput: the parallel batch evaluator over one shared
     in-memory handle, 1 vs 2 domains; per-run caches start cold, so the
     numbers include the cache warm-up the first queries pay *)
  let serve_entries = ref [] in
  let qps_1d = Hashtbl.create 4 in
  let qps_2d = Hashtbl.create 4 in
  let stream =
    let nq = List.length bench_queries in
    Array.init 400 (fun i -> List.nth bench_queries (i mod nq))
  in
  (* on a single-core machine a "2-domain" run would be silently clamped
     to 1 by [query_batch] — skip it and say so in the summary rather
     than report a 1-domain number under a 2-domain label *)
  let cores = Domain.recommended_domain_count () in
  let serve_domains = if cores >= 2 then [ 1; 2 ] else [ 1 ] in
  if cores < 2 then
    Printf.eprintf "serve: single core, skipping the 2-domain runs\n%!";
  List.iter
    (fun scheme ->
      let name = Si_core.Coding.scheme_to_string scheme in
      let si = Si_core.Si.build ~scheme ~mss ~trees () in
      List.iter
        (fun domains ->
          let best = ref None in
          for _ = 1 to 3 do
            let b = Si_core.Si.query_batch ~domains si stream in
            match !best with
            | Some p when p.Si_core.Si.elapsed_s <= b.Si_core.Si.elapsed_s -> ()
            | _ -> best := Some b
          done;
          let b = Option.get !best in
          let lat = Array.copy b.Si_core.Si.latencies_ns in
          Array.sort compare lat;
          let qps = float_of_int (Array.length stream) /. b.Si_core.Si.elapsed_s in
          if domains = 1 then Hashtbl.replace qps_1d scheme qps;
          if domains = 2 then Hashtbl.replace qps_2d scheme qps;
          let cs = b.Si_core.Si.cache in
          Printf.eprintf
            "serve %-10s domains=%d: %d queries in %.3fs (%.0f qps), \
             p50=%.1fus p95=%.1fus p99=%.1fus, cache %d/%d hits\n%!"
            name domains (Array.length stream) b.Si_core.Si.elapsed_s qps
            (quantile lat 0.5 /. 1e3)
            (quantile lat 0.95 /. 1e3)
            (quantile lat 0.99 /. 1e3)
            cs.Si_core.Cache.hits
            (cs.Si_core.Cache.hits + cs.Si_core.Cache.misses);
          serve_entries :=
            J.Obj
              [
                ("scheme", J.Str name);
                ("domains", J.Int domains);
                ("queries", J.Int (Array.length stream));
                ("elapsed_s", J.Float b.Si_core.Si.elapsed_s);
                ("qps", J.Float qps);
                ("p50_ns", J.Float (quantile lat 0.5));
                ("p95_ns", J.Float (quantile lat 0.95));
                ("p99_ns", J.Float (quantile lat 0.99));
                ("cache_hits", J.Int cs.Si_core.Cache.hits);
                ("cache_misses", J.Int cs.Si_core.Cache.misses);
                ("cache_evictions", J.Int cs.Si_core.Cache.evictions);
              ]
            :: !serve_entries)
        serve_domains)
    schemes;

  (* the network serving layer: a live TCP server on an ephemeral port
     under a closed-loop multi-client run; latencies are measured on the
     client side of the socket, so they include protocol parsing, the
     admission check, and the wire round-trip *)
  let serve_net_entry =
    let prefix = Filename.concat tmp "net-root-split" in
    ignore
      (Si_core.Si.build ~scheme:Si_core.Coding.Root_split ~mss ~trees ~prefix ());
    let srv = ok_exn (Si_serve.Server.start (Si_serve.Server.default_config ~prefix)) in
    let port = Si_serve.Server.port srv in
    let clients = 2 and per_client = 200 in
    let run_client id () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let lats = Array.make per_client 0. in
      let nq = List.length bench_queries in
      for i = 0 to per_client - 1 do
        let q = List.nth bench_queries ((i + id) mod nq) in
        let t0 = Si_core.Monotonic.now_ns () in
        output_string oc ("QUERY " ^ q ^ " count_only=1\n");
        flush oc;
        let rec drain () = if input_line ic <> "." then drain () in
        drain ();
        lats.(i) <- float_of_int (Si_core.Monotonic.now_ns () - t0)
      done;
      Unix.close fd;
      lats
    in
    let t0 = Unix.gettimeofday () in
    let doms = List.init clients (fun id -> Domain.spawn (run_client id)) in
    let lats =
      List.concat_map (fun d -> Array.to_list (Domain.join d)) doms
      |> Array.of_list
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    Si_serve.Server.stop srv;
    Array.sort compare lats;
    let total = clients * per_client in
    let qps = float_of_int total /. elapsed in
    Printf.eprintf
      "serve_net root-split: %d clients x %d queries in %.3fs (%.0f qps), \
       wire p50=%.1fus p95=%.1fus p99=%.1fus\n%!"
      clients per_client elapsed qps
      (quantile lats 0.5 /. 1e3)
      (quantile lats 0.95 /. 1e3)
      (quantile lats 0.99 /. 1e3);
    J.Obj
      [
        ("scheme", J.Str "root-split");
        ("clients", J.Int clients);
        ("queries", J.Int total);
        ("elapsed_s", J.Float elapsed);
        ("qps", J.Float qps);
        ("p50_ns", J.Float (quantile lats 0.5));
        ("p95_ns", J.Float (quantile lats 0.95));
        ("p99_ns", J.Float (quantile lats 0.99));
      ]
  in

  (* sharded fan-out vs a single index over the same corpus: 2 shards,
     root-split.  Each sharded query fans its legs across the affinity
     pool and k-way-merges, so on a multi-core machine the stream should
     match or beat the single index; on a single core the pool has one
     worker and the fan-out only adds merge overhead — the ratio is
     recorded as skipped rather than as a fake parallel number *)
  let sharded_entry =
    let shards = 2 in
    let scheme = Si_core.Coding.Root_split in
    let sprefix = Filename.concat tmp "sharded-root-split" in
    let t0 = Unix.gettimeofday () in
    ignore (ok_exn (Si_core.Si.build_sharded ~shards ~scheme ~mss ~trees sprefix));
    let build_s = Unix.gettimeofday () -. t0 in
    let sh, open_s =
      time_best ~repeat:5 (fun () -> ok_exn (Si_core.Si.open_sharded sprefix))
    in
    let single = Si_core.Si.build ~scheme ~mss ~trees () in
    (* same closed sequential loop over the same stream for both sides:
       the sharded side's parallelism lives inside each query *)
    let run_stream f =
      let lat = Array.make (Array.length stream) 0. in
      let t0 = Unix.gettimeofday () in
      Array.iteri
        (fun i q ->
          let q0 = Si_core.Monotonic.now_ns () in
          f q;
          lat.(i) <- float_of_int (Si_core.Monotonic.now_ns () - q0))
        stream;
      (Unix.gettimeofday () -. t0, lat)
    in
    let best_of runs f =
      let best = ref None in
      for _ = 1 to runs do
        let (dt, _) as r = run_stream f in
        match !best with
        | Some (p, _) when p <= dt -> ()
        | _ -> best := Some r
      done;
      Option.get !best
    in
    let sh_s, sh_lat =
      best_of 3 (fun q -> ignore (ok_exn (Si_core.Si.query_sharded sh q)))
    in
    let single_s, _ =
      best_of 3 (fun q -> ignore (ok_exn (Si_core.Si.query single q)))
    in
    Array.sort compare sh_lat;
    let nq = float_of_int (Array.length stream) in
    let qps = nq /. sh_s and single_qps = nq /. single_s in
    let multicore = Domain.recommended_domain_count () >= 2 in
    Printf.eprintf
      "sharded root-split shards=%d: build=%.3fs open=%.4fs; %d queries in \
       %.3fs (%.0f qps, p50=%.1fus p95=%.1fus) vs single %.0f qps%s\n%!"
      shards build_s open_s (Array.length stream) sh_s qps
      (quantile sh_lat 0.5 /. 1e3)
      (quantile sh_lat 0.95 /. 1e3)
      single_qps
      (if multicore then "" else " [single core: ratio skipped]");
    J.Obj
      [
        ("scheme", J.Str "root-split");
        ("shards", J.Int shards);
        ("build_ms", J.Float (1000. *. build_s));
        ("build_ms_per_shard", J.Float (1000. *. build_s /. float_of_int shards));
        ("open_ms", J.Float (1000. *. open_s));
        ("queries", J.Int (Array.length stream));
        ("elapsed_s", J.Float sh_s);
        ("qps", J.Float qps);
        ("p50_ns", J.Float (quantile sh_lat 0.5));
        ("p95_ns", J.Float (quantile sh_lat 0.95));
        ("single_qps", J.Float single_qps);
        ( "fanout_vs_single",
          if multicore then J.Float (qps /. single_qps)
          else J.Str "skipped_single_core" );
      ]
  in

  (* self-healing integrity (DESIGN.md §15): scrub throughput over the
     mapped SIDX4 regions, the query-throughput cost of a concurrent
     background scrub on the same handle, the latency of the corpus
     fallback a quarantined handle answers from, and the wall time of a
     full repair (rebuild from the corpus store + staged republish) *)
  let scrub_entry =
    let full4 = Filename.concat tmp "interval-full4" in
    let copy src dst =
      let ic = open_in_bin src in
      let b = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin dst in
      output_string oc b;
      close_out oc
    in
    (* full-cycle throughput on a fresh handle, lazy-verify flags unset *)
    let report, cycle_s =
      time_best ~repeat:3 (fun () ->
          let si = ok_exn (Si_core.Si.open_ full4) in
          Si_core.Si.scrub si)
    in
    if not (report.Si_core.Scrub.complete && report.Si_core.Scrub.clean) then
      failwith "scrub bench: pristine index did not scrub clean";
    let bytes = report.Si_core.Scrub.bytes_verified in
    (* query throughput with and without a concurrent scrubber domain *)
    let si = ok_exn (Si_core.Si.open_ full4) in
    let run_queries () =
      let t0 = Unix.gettimeofday () in
      Array.iter (fun q -> ignore (ok_exn (Si_core.Si.query si q))) stream;
      Unix.gettimeofday () -. t0
    in
    ignore (run_queries ());
    (* warm *)
    let qps_idle = float_of_int (Array.length stream) /. run_queries () in
    let multicore = Domain.recommended_domain_count () >= 2 in
    let qps_during =
      if not multicore then None
      else begin
        let stop = Atomic.make false in
        let scrubber =
          Domain.spawn (fun () ->
              let b = Si_core.Scrub.budget ~max_bytes:(256 * 1024) () in
              while not (Atomic.get stop) do
                ignore (Si_core.Si.scrub ~budget:b si)
              done)
        in
        let busy_s = run_queries () in
        Atomic.set stop true;
        Domain.join scrubber;
        Some (float_of_int (Array.length stream) /. busy_s)
      end
    in
    (* quarantined-handle fallback latency vs the native streaming path *)
    let bad = Filename.concat tmp "scrub-bad" in
    List.iter
      (fun ext -> copy (full4 ^ ext) (bad ^ ext))
      [ ".idx"; ".labels"; ".meta"; ".trees" ];
    (let fd = Unix.openfile (bad ^ ".idx") [ Unix.O_RDWR ] 0 in
     let size = (Unix.fstat fd).Unix.st_size in
     let b = Bytes.create 1 in
     ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
     ignore (Unix.read fd b 0 1);
     Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
     ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
     ignore (Unix.write fd b 0 1);
     Unix.close fd);
    let bsi = ok_exn (Si_core.Si.open_ bad) in
    ignore (Si_core.Si.scrub bsi);
    if not (Si_core.Si.quarantined bsi) then
      failwith "scrub bench: bitflip did not quarantine";
    let battery h () =
      List.iter (fun q -> ignore (ok_exn (Si_core.Si.query h q))) bench_queries
    in
    battery bsi ();
    let _, fb_p50, _, _ =
      latency_quantiles ~quota ~name:"scrub/fallback" (battery bsi)
    in
    battery si ();
    let _, nat_p50, _, _ =
      latency_quantiles ~quota ~name:"scrub/native" (battery si)
    in
    let repaired, repair_s =
      time_best ~repeat:1 (fun () -> ok_exn (Si_core.Si.repair bsi))
    in
    Printf.eprintf
      "scrub interval: %d bytes in %.2fms (%.0f MB/s); qps idle=%.0f \
       during-scrub=%s; fallback p50=%.1fus vs native %.1fus (%.1fx); \
       repair %d trees in %.1fms\n%!"
      bytes (1000. *. cycle_s)
      (float_of_int bytes /. 1e6 /. cycle_s)
      qps_idle
      (match qps_during with
      | Some q -> Printf.sprintf "%.0f" q
      | None -> "skipped")
      (fb_p50 /. 1e3) (nat_p50 /. 1e3)
      (fb_p50 /. nat_p50)
      repaired (1000. *. repair_s);
    J.Obj
      [
        ("scheme", J.Str "interval");
        ("bytes", J.Int bytes);
        ("full_cycle_ms", J.Float (1000. *. cycle_s));
        ("mb_per_s", J.Float (float_of_int bytes /. 1e6 /. cycle_s));
        ("qps_idle", J.Float qps_idle);
        ( "qps_during_scrub",
          match qps_during with
          | Some q -> J.Float q
          | None -> J.Str "skipped_single_core" );
        ( "scrub_overhead_pct",
          match qps_during with
          | Some q -> J.Float (100. *. (1. -. (q /. qps_idle)))
          | None -> J.Str "skipped_single_core" );
        ("fallback_p50_ns", J.Float fb_p50);
        ("native_p50_ns", J.Float nat_p50);
        ("fallback_slowdown", J.Float (fb_p50 /. nat_p50));
        ("repaired_trees", J.Int repaired);
        ("repair_ms", J.Float (1000. *. repair_s));
      ]
  in

  (* stable headline numbers: one object per coding, fixed keys, so CI and
     future PRs can diff trajectories without walking the detail arrays *)
  let summary =
    J.Obj
      (List.map
         (fun scheme ->
           let name = Si_core.Coding.scheme_to_string scheme in
           ( name,
             J.Obj
               [
                 ("build_ms", J.Float (1000.0 *. Hashtbl.find build1_s scheme));
                 ("index_bytes", J.Int (Hashtbl.find idx_bytes scheme));
                 ( "p50_query_ns",
                   J.Float (median (Hashtbl.find query_p50s scheme)) );
                 ( "p95_query_ns",
                   J.Float (median (Hashtbl.find query_p95s scheme)) );
                 ( "p99_query_ns",
                   J.Float (median (Hashtbl.find query_p99s scheme)) );
                 ("qps", J.Float (Hashtbl.find qps_1d scheme));
                 ( "qps_domains2",
                   match Hashtbl.find_opt qps_2d scheme with
                   | Some qps -> J.Float qps
                   | None -> J.Str "skipped_single_core" );
               ] ))
         schemes)
  in
  let json =
    J.Obj
      [
        ("summary", summary);
        ( "meta",
          J.Obj
            [
              ("seed", J.Int seed);
              ("n_trees", J.Int n);
              ("n_nodes", J.Int nodes);
              ("mss", J.Int mss);
              ("commit", J.Str (commit_hash ()));
              ("ocaml", J.Str Sys.ocaml_version);
              ("cores", J.Int (Domain.recommended_domain_count ()));
            ] );
        ("build", J.Arr (List.rev !build_entries));
        ("index", J.Arr (List.rev !index_entries));
        ("load", J.Arr (List.rev !load_entries));
        ("open_latency", J.Arr (List.rev !open_entries));
        ("post_validate", post_validate_entry);
        ("query", J.Arr (List.rev !query_entries));
        ("serve", J.Arr (List.rev !serve_entries));
        ("serve_net", serve_net_entry);
        ("sharded", sharded_entry);
        ("scrub", scrub_entry);
      ]
  in
  let oc = open_out !out in
  output_string oc (J.to_string json);
  close_out oc;
  Printf.eprintf "wrote %s\n%!" !out
