open Si_core

let ring_size = 4096

type t = {
  lock : Mutex.t;
  started_ns : int;
  mutable conns_accepted : int;
  mutable conns_closed : int;
  mutable requests : int;
  mutable bad_requests : int;
  mutable queries_ok : int;
  mutable queries_err : int;
  mutable truncated : int;
  mutable shed : int;
  mutable quota_rejected : int;
  mutable browned : int;
  mutable degraded : int;
  mutable swaps : int;
  mutable swap_failures : int;
  mutable inserts : int;
  mutable checkpoints : int;
  mutable checkpoint_failures : int;
  mutable integrity_fallbacks : int;
  mutable scrub_passes : int;
  mutable scrub_bytes : int;
  mutable repairs : int;
  mutable repair_failures : int;
  mutable inflight : int;
  ring : float array;  (* last [ring_size] query latencies, ns *)
  mutable ring_len : int;
  mutable ring_pos : int;
}

let create () =
  {
    lock = Mutex.create ();
    started_ns = Monotonic.now_ns ();
    conns_accepted = 0;
    conns_closed = 0;
    requests = 0;
    bad_requests = 0;
    queries_ok = 0;
    queries_err = 0;
    truncated = 0;
    shed = 0;
    quota_rejected = 0;
    browned = 0;
    degraded = 0;
    swaps = 0;
    swap_failures = 0;
    inserts = 0;
    checkpoints = 0;
    checkpoint_failures = 0;
    integrity_fallbacks = 0;
    scrub_passes = 0;
    scrub_bytes = 0;
    repairs = 0;
    repair_failures = 0;
    inflight = 0;
    ring = Array.make ring_size 0.;
    ring_len = 0;
    ring_pos = 0;
  }

type counter =
  [ `Conn_accepted
  | `Conn_closed
  | `Request
  | `Bad_request
  | `Shed
  | `Quota
  | `Browned
  | `Degraded
  | `Swap
  | `Swap_failure
  | `Insert
  | `Checkpoint
  | `Checkpoint_failure
  | `Integrity_fallback
  | `Repair
  | `Repair_failure ]

let bump t c =
  Mutex.protect t.lock (fun () ->
      match c with
      | `Conn_accepted -> t.conns_accepted <- t.conns_accepted + 1
      | `Conn_closed -> t.conns_closed <- t.conns_closed + 1
      | `Request -> t.requests <- t.requests + 1
      | `Bad_request -> t.bad_requests <- t.bad_requests + 1
      | `Shed -> t.shed <- t.shed + 1
      | `Quota -> t.quota_rejected <- t.quota_rejected + 1
      | `Browned -> t.browned <- t.browned + 1
      | `Degraded -> t.degraded <- t.degraded + 1
      | `Swap -> t.swaps <- t.swaps + 1
      | `Swap_failure -> t.swap_failures <- t.swap_failures + 1
      | `Insert -> t.inserts <- t.inserts + 1
      | `Checkpoint -> t.checkpoints <- t.checkpoints + 1
      | `Checkpoint_failure ->
          t.checkpoint_failures <- t.checkpoint_failures + 1
      | `Integrity_fallback ->
          t.integrity_fallbacks <- t.integrity_fallbacks + 1
      | `Repair -> t.repairs <- t.repairs + 1
      | `Repair_failure -> t.repair_failures <- t.repair_failures + 1)

let scrub_done t ~bytes =
  Mutex.protect t.lock (fun () ->
      t.scrub_passes <- t.scrub_passes + 1;
      t.scrub_bytes <- t.scrub_bytes + bytes)

let query_done t ~ok ~truncated ~latency_ns =
  Mutex.protect t.lock (fun () ->
      if ok then t.queries_ok <- t.queries_ok + 1
      else t.queries_err <- t.queries_err + 1;
      if truncated then t.truncated <- t.truncated + 1;
      t.ring.(t.ring_pos) <- latency_ns;
      t.ring_pos <- (t.ring_pos + 1) mod ring_size;
      if t.ring_len < ring_size then t.ring_len <- t.ring_len + 1)

let inflight_enter t =
  Mutex.protect t.lock (fun () ->
      t.inflight <- t.inflight + 1;
      t.inflight)

let inflight_exit t =
  Mutex.protect t.lock (fun () -> t.inflight <- t.inflight - 1)

let inflight t = Mutex.protect t.lock (fun () -> t.inflight)

let uptime_s t = Monotonic.elapsed_s t.started_ns

let queries t =
  Mutex.protect t.lock (fun () -> t.queries_ok + t.queries_err)

(* nearest-rank on a sorted snapshot — same estimator si_tool's offline
   serve report uses *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let serving_json t ~gen ~prefix ~draining ~integrity_state ~quarantined
    ~workers =
  let snap =
    Mutex.protect t.lock (fun () ->
        (Array.sub t.ring 0 t.ring_len, { t with lock = t.lock }))
  in
  let lat, c = snap in
  Array.sort compare lat;
  let up = uptime_s t in
  let evaluated = c.queries_ok + c.queries_err in
  Jsonx.Obj
    [
      ("uptime_s", Jsonx.Float up);
      ("qps", Jsonx.Float (if up > 0. then float_of_int evaluated /. up else 0.));
      ("inflight", Jsonx.Int c.inflight);
      ("draining", Jsonx.Bool draining);
      ( "conns",
        Jsonx.Obj
          [
            ("accepted", Jsonx.Int c.conns_accepted);
            ("open", Jsonx.Int (c.conns_accepted - c.conns_closed));
          ] );
      ("requests", Jsonx.Int c.requests);
      ( "queries",
        Jsonx.Obj
          [
            ("ok", Jsonx.Int c.queries_ok);
            ("error", Jsonx.Int c.queries_err);
            ("truncated", Jsonx.Int c.truncated);
            ("browned_out", Jsonx.Int c.browned);
            ("degraded", Jsonx.Int c.degraded);
          ] );
      ( "rejected",
        Jsonx.Obj
          [
            ("overloaded", Jsonx.Int c.shed);
            ("quota", Jsonx.Int c.quota_rejected);
            ("bad_request", Jsonx.Int c.bad_requests);
          ] );
      ( "swap",
        Jsonx.Obj
          [
            ("generation", Jsonx.Int gen);
            ("prefix", Jsonx.Str prefix);
            ("completed", Jsonx.Int c.swaps);
            ("failed", Jsonx.Int c.swap_failures);
          ] );
      ( "wal",
        Jsonx.Obj
          [
            ("inserts", Jsonx.Int c.inserts);
            ("checkpoints", Jsonx.Int c.checkpoints);
            ("checkpoint_failures", Jsonx.Int c.checkpoint_failures);
          ] );
      ( "integrity",
        Jsonx.Obj
          [
            ("state", Jsonx.Str integrity_state);
            ("quarantined", Jsonx.Int quarantined);
            ("fallback_answers", Jsonx.Int c.integrity_fallbacks);
            ("scrub_passes", Jsonx.Int c.scrub_passes);
            ("scrub_bytes", Jsonx.Int c.scrub_bytes);
            ("repairs", Jsonx.Int c.repairs);
            ("repair_failures", Jsonx.Int c.repair_failures);
          ] );
      ( "latency_ns",
        Jsonx.Obj
          [
            ("samples", Jsonx.Int (Array.length lat));
            ("p50", Jsonx.Float (quantile lat 0.50));
            ("p95", Jsonx.Float (quantile lat 0.95));
            ("p99", Jsonx.Float (quantile lat 0.99));
          ] );
      ("workers", Jsonx.Arr workers);
    ]

(* mapped SIDX4 handles report the mapping sizes (.idx + .trees); heap
   handles report 0 — the distinction the stats CI check pins *)
let mapped_bytes_of si =
  (match Builder.mapped_stats (Si.index si) with
  | Some m -> m.Builder.mapped_bytes
  | None -> 0)
  + (match Corpus.store (Si.corpus si) with
    | Some st -> Treestore.mapped_bytes st
    | None -> 0)

let backend_str si = if Builder.is_mapped (Si.index si) then "mapped" else "heap"

let index_json si =
  let s = Si.stats si in
  Jsonx.Obj
    [
      ("scheme", Jsonx.Str (Coding.scheme_to_string (Si.scheme si)));
      ("mss", Jsonx.Int (Si.mss si));
      ("backend", Jsonx.Str (backend_str si));
      ("trees", Jsonx.Int s.Builder.trees);
      ("nodes", Jsonx.Int s.Builder.nodes);
      ("keys", Jsonx.Int s.Builder.keys);
      ("postings", Jsonx.Int s.Builder.postings);
      ("idx_bytes", Jsonx.Int s.Builder.bytes);
      ("mapped_bytes", Jsonx.Int (mapped_bytes_of si));
    ]

let sharded_index_json sh =
  let hs = Si.shard_handles sh in
  let stats = Array.map Si.stats hs in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  (* scheme/mss are manifest-pinned identical across members — report
     shard 0's (open_sharded guarantees shards >= 1) *)
  Jsonx.Obj
    [
      ("scheme", Jsonx.Str (Coding.scheme_to_string (Si.scheme hs.(0))));
      ("mss", Jsonx.Int (Si.mss hs.(0)));
      ("backend", Jsonx.Str "sharded");
      ("trees", Jsonx.Int (sum (fun s -> s.Builder.trees)));
      ("nodes", Jsonx.Int (sum (fun s -> s.Builder.nodes)));
      ("keys", Jsonx.Int (sum (fun s -> s.Builder.keys)));
      ("postings", Jsonx.Int (sum (fun s -> s.Builder.postings)));
      ("idx_bytes", Jsonx.Int (sum (fun s -> s.Builder.bytes)));
      ( "mapped_bytes",
        Jsonx.Int (Array.fold_left (fun acc si -> acc + mapped_bytes_of si) 0 hs)
      );
    ]

let shards_json sh =
  let hs = Si.shard_handles sh in
  Jsonx.Obj
    [
      ("count", Jsonx.Int (Array.length hs));
      ("router", Jsonx.Str Shardmap.router);
      ("total_trees", Jsonx.Int (Si.sharded_total sh));
      ("pending", Jsonx.Int (Si.pending_sharded sh));
      ("wal_bytes", Jsonx.Int (Si.wal_bytes_sharded sh));
      ( "per_shard",
        Jsonx.Arr
          (Array.to_list
             (Array.mapi
                (fun i si ->
                  Jsonx.Obj
                    [
                      ("shard", Jsonx.Int i);
                      ("backend", Jsonx.Str (backend_str si));
                      ("trees", Jsonx.Int (Si.stats si).Builder.trees);
                      ("pending", Jsonx.Int (Si.pending si));
                      ("wal_bytes", Jsonx.Int (Si.wal_bytes si));
                    ])
                hs)) );
    ]
