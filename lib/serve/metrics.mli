(** Serving metrics: admission/traffic counters and a latency reservoir.

    One instance per server, shared by the acceptor and every worker
    domain; mutators take the internal mutex (the critical sections are a
    few loads and stores — contention is irrelevant next to a query
    evaluation).  The latency reservoir keeps the last {!ring_size}
    per-query wall latencies; percentiles are computed over a snapshot,
    so they describe recent traffic, not all-time.

    {!serving_json} and {!index_json} define the machine-readable schema
    shared by the server's [STATS] verb and [si_tool stats --json] — one
    schema, two producers, validated by the CI serve-smoke job. *)

type t

val create : unit -> t
(** Counters zeroed, uptime clock started (monotonic). *)

val ring_size : int
(** Capacity of the latency reservoir (4096). *)

type counter =
  [ `Conn_accepted  (** connection taken off the listen socket *)
  | `Conn_closed
  | `Request  (** any request line received (admin verbs included) *)
  | `Bad_request  (** line refused by the protocol parser *)
  | `Shed  (** QUERY rejected: overloaded *)
  | `Quota  (** QUERY rejected: client over its token bucket *)
  | `Browned  (** QUERY admitted but degraded by brownout *)
  | `Degraded
    (** sharded QUERY answered from a partial shard set (one or more
        shard legs failed — brownout, not a 503) *)
  | `Swap  (** completed generation flip *)
  | `Swap_failure  (** SWAP that aborted, old generation kept *)
  | `Insert  (** INSERT accepted: tree WAL-appended and live in the delta *)
  | `Checkpoint  (** delta folded into a new main set and swapped in *)
  | `Checkpoint_failure
    (** checkpoint merge/publish/swap aborted; WAL + delta still serve *)
  | `Integrity_fallback
    (** QUERY answered by the oracle fallback over the corpus store
        because the index is quarantined (exact, slower) *)
  | `Repair  (** completed integrity repair: rebuilt, published, swapped *)
  | `Repair_failure
    (** repair aborted; the quarantined generation keeps serving via
        the fallback *) ]

val bump : t -> counter -> unit

val scrub_done : t -> bytes:int -> unit
(** Account one completed scrub pass (background or [SCRUB] verb) and
    the bytes it verified. *)

val query_done : t -> ok:bool -> truncated:bool -> latency_ns:float -> unit
(** Account one evaluated QUERY (admitted ones only — rejections are
    {!bump}ed, not latency-sampled). *)

val inflight_enter : t -> int
(** Admit one query into evaluation; returns the in-flight count
    {e including} this one — the load-shedding signal. *)

val inflight_exit : t -> unit

val inflight : t -> int
(** The in-flight gauge right now. *)

val uptime_s : t -> float
val queries : t -> int
(** Total evaluated queries (ok + error). *)

val serving_json :
  t ->
  gen:int ->
  prefix:string ->
  draining:bool ->
  integrity_state:string ->
  quarantined:int ->
  workers:Jsonx.t list ->
  Jsonx.t
(** The ["serving"] object: uptime, qps (evaluated queries / uptime),
    in-flight gauge, connection/request/rejection counters, swap
    counters and current generation, WAL counters (inserts,
    checkpoints, checkpoint failures), an ["integrity"] object
    ([state]/[quarantined] as supplied by the server plus the fallback,
    scrub and repair counters), latency percentiles over the reservoir
    snapshot, and the per-worker objects supplied by the server
    (queries, errors, busy time, per-domain cache counters). *)

val backend_str : Si_core.Si.t -> string
(** ["mapped"] for a handle opened from a prefix ({!Si_core.Builder.is_mapped}),
    ["heap"] for an in-memory build. *)

val index_json : Si_core.Si.t -> Jsonx.t
(** The ["index"] object: scheme, mss, trees, nodes, keys, postings,
    flattened bytes — identical fields from both producers. *)

val sharded_index_json : Si_core.Si.sharded -> Jsonx.t
(** The ["index"] object of a sharded handle: same fields, counters
    summed over the member shards, [backend = "sharded"]. *)

val shards_json : Si_core.Si.sharded -> Jsonx.t
(** The ["shards"] object: shard count, router version, global tree
    total, aggregate pending/WAL debt, and a [per_shard] array (trees,
    pending, WAL bytes, backend per member). *)
