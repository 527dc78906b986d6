(** The Subtree Index facade: build / save / open / query.

    On-disk layout under a [prefix] (see [_bench/README.md] for the naming
    convention the bench harness uses):

    - [prefix.idx] — the SIDX4 key directory + postings ({!Builder.save}),
      mapped in place at open;
    - [prefix.trees] — the indexed corpus as a mapped store
      ({!Treestore}; tree id = record number), read for interval
      resolution, filter-coding validation, the root-split corner
      fallback and sentence output;
    - [prefix.labels] — interned label names, one per id, in id order;
    - [prefix.meta] — [key=value] text: scheme, mss, trees, nodes, keys,
      postings, and [idx_crc] — the footer digest of the [.idx] bytes the
      siblings were written against ({!Builder.file_digest}, the
      crash-consistency cross-check).

    A stored index is self-contained: a fresh process re-interns labels and
    resolves its ids through the stored table, so queries return the same
    match sets as in the building process.

    A prefix may additionally carry [prefix.wal] — the write-ahead log of
    trees inserted since the last checkpoint (DESIGN.md §13).  {!open_}
    replays it into an in-memory {e delta index} that every query unions
    with the main postings; {!insert} appends to it durably; {!checkpoint}
    folds the delta into a freshly published main index and truncates it.

    Persistence is crash-safe: all four files are staged
    ([prefix.idx.new], [*.tmp]) before any final name changes, so a build
    killed before the publish renames leaves a pre-existing index at the
    same prefix byte-identical and fully loadable; a kill inside the
    rename sequence can leave a mixed old/new set, which {!open_} detects
    through [idx_crc] and refuses ([Schema_mismatch]) rather than
    answering from mismatched files. *)

type t

val build :
  ?domains:int ->
  ?cache_budget:int ->
  scheme:Coding.scheme ->
  mss:int ->
  trees:Si_treebank.Tree.t list ->
  ?prefix:string ->
  unit ->
  t
(** Build in memory; when [prefix] is given, also persist the file set
    (crash-safely — see the module preamble).  [domains] (default 1)
    shards construction across that many OCaml domains; the result and
    persisted bytes are identical regardless.  [cache_budget] bounds the
    handle's decoded-block cache in bytes (default 64 MiB; [0] disables
    retention — queries still stream, nothing is kept).  The handle
    answers from the in-memory index; {!open_} maps the persisted one.
    Raises [Si_error.Error] (an [Io] variant) if persisting fails. *)

val index : t -> Builder.t
(** The underlying key table — for tools and benchmarks. *)

val open_ : ?cache_budget:int -> string -> (t, Si_error.t) result
(** Open an index persisted by {!build}, in O(1): the [.idx] and the
    [.trees] corpus store are mapped, only their footer/header CRCs are
    checked up front (body region CRCs verify lazily, on first touch), and
    trees materialize on demand.  Query results are byte-identical to the
    in-memory index the prefix was built from.  Errors: [Corrupt] for
    damaged [.idx] / [.trees] bytes, [Io] for unreadable files,
    [Schema_mismatch] when the [.meta] cross-check fails — scheme, mss,
    tree count and [idx_crc] must agree with the mapped files — or when the
    [.idx] is a retired SIDX1/2/3 container (rebuild the prefix).

    The open then replays [prefix.wal] (if present) into the delta
    index: a record whose tid the main index already covers is skipped
    (a checkpoint that crashed before truncating), a torn tail is
    ignored, and the remaining records must continue the tree numbering
    without a gap ([Corrupt] otherwise).  [Schema_mismatch] if the WAL
    header's scheme/mss disagree with the index. *)

val insert : t -> Si_treebank.Tree.t list -> (int, Si_error.t) result
(** Append trees durably ([Ok n] = the total tree count now visible,
    main + delta): each tree is CRC-framed and fsync'd into [prefix.wal]
    {e before} the rebuilt delta snapshot is published to readers
    (queries racing an insert see the old or the new snapshot, never a
    torn one).  Serialized with {!checkpoint} on the handle's insert
    lock; queries never block.  Labels the index has never seen extend
    its id space in insertion order.  Raises [Invalid_argument] on a
    handle with no on-disk prefix.  Errors: [Io] on a write/fsync
    failure, [Schema_mismatch] / [Corrupt] on a damaged existing WAL.  A
    failed insert leaves the WAL as it was ({!Wal.append} rolls it back),
    so a later insert on the handle is replayed exactly; if that rollback
    fails too, every later {!insert}, {!checkpoint} and {!repair} on the
    handle returns [Io] until the prefix is reopened. *)

val checkpoint : t -> (int, Si_error.t) result
(** Fold the delta into the main index and publish: merge
    ({!Builder.merge_append}), save the new file set through the staged-
    rename crash protocol, truncate the WAL.  [Ok k] = delta trees folded
    in; [Ok 0] = empty delta, nothing written — except that a leftover
    WAL whose records the main index already covers (a crash between a
    previous checkpoint's publish and its truncate) is truncated, so an
    explicit checkpoint always converges to an empty log.  Every kill window leaves a loadable prefix: the
    old set + replayable WAL before the publish renames, a refused mixed
    set ([Schema_mismatch], [idx_crc]) inside them, the new set + ignored
    (tid-covered) or truncated WAL after.  The in-memory handle keeps
    serving old-main + delta — the same match set as the new index;
    reopen ({!open_}) to shed the delta memory. *)

val pending : t -> int
(** Trees in the delta (inserted since the last checkpoint). *)

val wal_bytes : t -> int
(** Size of the WAL this handle has open, header included; [0] when no
    insert has opened it yet. *)

val close_wal : t -> unit
(** Close the WAL append handle, if open.  Idempotent; the next {!insert}
    reopens.  A server that swapped generations closes the retired
    handle's WAL so the descriptor does not leak. *)

val query : ?limits:Limits.t -> t -> string -> ((int * int) list, Si_error.t) result
(** Parse and evaluate; [(tid, node)] match pairs, sorted.  Evaluates on
    the streaming path through the handle's decoded-block cache
    (result-identical to {!Eval.run} without a cache).  Errors:
    [Bad_query] on a syntax error, [Corrupt]/[Schema_mismatch] if posting
    decode fails during evaluation; with [limits], [Timeout] /
    [Resource_exhausted] on a deadline or budget trip (softened to a
    truncated result under [limits.partial] — use {!query_outcome} to see
    the flag). *)

val query_outcome :
  ?limits:Limits.t -> t -> string -> (Limits.outcome, Si_error.t) result
(** {!query} with the resource-governance outcome exposed: [truncated]
    tells whether the match list is exact or a degraded prefix (see
    {!Eval.run_outcome} for the contract). *)

val query_outcome_cached :
  cache:Cursor.cache ->
  ?limits:Limits.t ->
  t ->
  string ->
  (Limits.outcome, Si_error.t) result
(** {!query_outcome} evaluating through the caller's decoded-block cache
    instead of the handle's own.  This is the concurrent-serving entry
    point: the handle's packed index and corpus are read-only on this
    path, so any number of domains may evaluate over one shared handle as
    long as each brings its own cache ({!Cache.t} is not thread-safe).
    The long-lived network server gives every worker domain one cache per
    index generation — a cache must never outlive the handle it decoded
    from, since keys are (index key, block) pairs that could collide
    across generations. *)

val query_ast :
  ?limits:Limits.t -> t -> Si_query.Ast.t -> ((int * int) list, Si_error.t) result

type domain_stat = {
  queries_run : int;  (** slots this worker actually evaluated *)
  errors : int;  (** of those, how many returned [Error _] *)
  busy_ns : int;  (** summed per-query wall time (monotonic) *)
  died : string option;
      (** [Some reason] if the worker failed to spawn or died mid-range —
          its unwritten slots hold the sentinel
          [Error (Internal "query slot never ran ...")] *)
}

type batch = {
  answers : (Limits.outcome, Si_error.t) result array;
      (** per query, input order *)
  latencies_ns : float array;  (** per-query wall latency (monotonic) *)
  elapsed_s : float;  (** whole-batch wall time (QPS = n / elapsed) *)
  cache : Cache.stats;  (** summed over the per-domain caches *)
  domain_stats : domain_stat array;  (** per worker, domain 0 first *)
}

val query_batch :
  ?domains:int -> ?cache_budget:int -> ?limits:Limits.t -> t -> string array -> batch
(** [query_batch t queries] evaluates the stream, fanned round-robin
    across [domains] (default 1) OCaml 5 domains over this one shared
    handle.  The hot path takes no locks: the packed index and corpus are
    read-only, each domain evaluates through its own decoded-block cache
    ([cache_budget] bytes each), and result slots are disjoint.  [limits]
    governs every query individually (each gets a fresh gauge).

    [domains] is clamped to [Domain.recommended_domain_count ()] with a
    one-line warning on stderr: spawning more CPU-bound workers than
    cores is strictly slower (EXPERIMENTS.md measures it), so asking for
    more is treated as a misconfiguration, not honoured.  The clamped
    width is observable as [Array.length batch.domain_stats].

    Fault-isolated: an exception escaping one evaluation becomes
    [Error (Internal _)] in that slot only; a worker domain that dies or
    fails to spawn leaves its remaining slots as the sentinel and is
    reported in {!domain_stat.died} — the call itself never rethrows a
    per-query failure.  Raises [Invalid_argument] if [domains < 1]. *)

val cache_stats : t -> Cache.stats
(** Counters of the handle's own cache (the one {!query} uses). *)

val oracle : t -> Si_query.Ast.t -> (int * int) list
(** The brute-force matcher over the stored corpus {e plus the delta} —
    the reference answer, covering inserted trees too. *)

val scheme : t -> Coding.scheme
val mss : t -> int
val stats : t -> Builder.stats
val corpus : t -> Corpus.t

val sentence : t -> int -> Si_treebank.Tree.t
(** The indexed tree with id [tid] — main corpus or delta. *)

(** {1 Self-healing integrity (DESIGN.md §15)}

    The SIDX4 open defers region CRC verification to first use, moving
    corruption discovery to query time.  Three mechanisms close the
    loop:

    {b Quarantine.}  A query that decodes corrupt bytes belonging to the
    index's {e own} file quarantines the handle instead of erroring:
    this and every subsequent query answers from the corpus store (the
    source of truth) through the brute-force matcher — exact, slower —
    with [outcome.degraded = true]; under budget pressure the fallback
    degrades to a truncated subset exactly like the index path (the §10
    contract, extended).  Corpus-store ([.trees]) damage is {e not}
    quarantinable — the fallback needs those bytes too — and propagates
    as [Corrupt].

    {b Scrub.}  {!scrub} proactively verifies the lazily-checked regions
    under a budget, resuming across calls, localizing postings damage to
    keys and trees damage to tids, and quarantining on index damage —
    so corruption is found between queries, not by one.

    {b Repair.}  {!repair} rebuilds the index purely from corpus + delta
    (never the damaged postings) and publishes through the §9
    staged-rename protocol; the prefix then reopens clean.  Servers ride
    the reopen through the generation swap — zero dropped queries. *)

val quarantined : t -> bool
(** Lock-free: is the handle answering from the corpus fallback? *)

val scrub : ?budget:Scrub.budget -> t -> Scrub.report
(** One budgeted scrub pass ({!Scrub.pass}) over the handle's index and
    corpus store, folding the verdict into the quarantine and the
    {!integrity} counters.  Never raises on corrupt bytes. *)

val repair : t -> (int, Si_error.t) result
(** Rebuild and republish the prefix from the corpus store + delta.
    [Ok n] = trees in the repaired index.  The in-memory handle still
    maps the {e old} bytes afterwards (and keeps its quarantine): reopen
    the prefix to serve the repaired index.  Raises [Invalid_argument]
    on a handle with no on-disk prefix.  Failpoints:
    [si.repair.rebuild], [si.repair.publish], [si.repair.wal-truncate];
    every kill window leaves a loadable prefix (the recovery harness
    asserts this). *)

type integrity_state = [ `Ok | `Degraded | `Repairing ]

type integrity_stats = {
  state : integrity_state;
  quarantined_keys : int;  (** scrub-localized undecodable postings *)
  quarantined_trees : int;  (** scrub-localized undecodable tree records *)
  fallback_answers : int;  (** queries answered by the corpus fallback *)
  scrub_passes : int;
  scrub_bytes : int;  (** bytes verified across all scrub passes *)
  repairs : int;
  repair_failures : int;
}

val integrity : t -> integrity_stats

(** {1 Sharded handles (DESIGN.md §14)}

    One logical index split across [shards] per-shard prefixes
    ([prefix.shard0] … [prefix.shardN-1]) plus a [prefix.shards]
    manifest ({!Shardmap}).  Each member shard is a complete stand-alone
    index (its own file set and WAL) with {e shard-local} tree
    ids; the deterministic router owns globality: global tid [g] lives
    on shard [Shardmap.shard_of_tid g], and a shard's local order is the
    global order restricted to it.  Queries fan out over the shards on
    affinity-pinned pool workers (shard [i] always runs on worker
    [i mod pool size], so its decode cache stays single-domain), remap
    local tids to global, and k-way-merge the sorted disjoint streams
    into one globally tid-ordered result. *)

type sharded

type handle = Single of t | Sharded of sharded
(** What {!open_any} yields: tools that serve "a prefix" dispatch on
    this. *)

val build_sharded :
  ?domains:int ->
  ?cache_budget:int ->
  shards:int ->
  scheme:Coding.scheme ->
  mss:int ->
  trees:Si_treebank.Tree.t list ->
  string ->
  (sharded, Si_error.t) result
(** Partition [trees] by the router, build every shard as its own
    crash-safe file set (fanned across the affinity pool — on a
    multi-core builder the per-shard builds overlap), then write the
    manifest as the commit point: a crash before it leaves only
    unreferenced [.shardK] files, never a half-published sharded
    prefix. *)

val open_sharded : ?cache_budget:int -> string -> (sharded, Si_error.t) result
(** Open every member shard ({!open_}, so each shard's own [.meta] CRC
    cross-check and WAL replay apply) and validate the set: every shard
    must match the manifest's scheme/mss, and each shard's visible tree
    count must equal its router assignment for the summed total —
    a shard swapped in from another corpus is refused as
    [Schema_mismatch], never queried. *)

val open_any : ?cache_budget:int -> string -> (handle, Si_error.t) result
(** {!open_sharded} when [prefix.shards] exists, {!open_} otherwise. *)

type sharded_outcome = {
  so_outcome : Limits.outcome;
      (** merged matches, globally tid-ordered; [truncated] if any leg
          truncated, the merge hit [max_results], or a leg was dropped *)
  so_failed : (int * Si_error.t) list;
      (** shards whose leg failed (shard order); non-empty only under
          [degrade] *)
}

val query_outcome_sharded :
  ?limits:Limits.t ->
  ?degrade:bool ->
  sharded ->
  string ->
  (sharded_outcome, Si_error.t) result
(** Fan out / merge under a single shared {!Limits} gauge: byte and
    step budgets pool atomically across the legs, the deadline spans
    the whole fan-out, and [max_results] caps both each leg and the
    merged stream — truncation anywhere still returns a verified subset
    of the exact answer (the §10 contract, now across shards).

    [degrade = false] (default): one failed leg fails the query with
    that shard's error.  [degrade = true] (the serving path): failed
    legs are dropped and the healthy remainder answers with
    [truncated = true] plus the failures in [so_failed] — a brownout,
    not a refusal; only when {e every} leg fails does the query fail. *)

val query_sharded :
  ?limits:Limits.t ->
  ?degrade:bool ->
  sharded ->
  string ->
  ((int * int) list, Si_error.t) result
(** {!query_outcome_sharded} keeping just the merged matches. *)

val insert_sharded : sharded -> Si_treebank.Tree.t list -> (int, Si_error.t) result
(** Route each tree to the owner of its global tid and append through
    the owning shard's WAL (shard-local numbering — each prefix stays
    self-contained).  [Ok n] = total trees now visible across shards.
    The local→global map extends before the shard's delta publishes, so
    a racing fan-out query can always remap what it sees. *)

val checkpoint_sharded : ?shard:int -> sharded -> (int, Si_error.t) result
(** Fold WAL deltas into the main per-shard indexes: [?shard] picks one
    (its debt drains independently — the point of per-shard WALs),
    default all.  [Ok k] = delta trees folded. *)

val reopen_shard : ?cache_budget:int -> sharded -> int -> (sharded, Si_error.t) result
(** A functional flip of one member shard to a freshly opened handle
    (the per-shard zero-downtime swap): the returned record shares the
    router, write lock and tid maps with the old one, and the count
    assignment is re-checked before any query can touch the new
    shard. *)

val shard_count : sharded -> int
val shard_handles : sharded -> t array
(** The member shards, for stats aggregation; shard [i]'s handle. *)

val sharded_prefix : sharded -> string
val shard_map : sharded -> Shardmap.t
val sharded_total : sharded -> int
(** Trees visible across all shards, main + deltas. *)

val pending_sharded : sharded -> int
(** Summed {!pending} over the member shards. *)

val wal_bytes_sharded : sharded -> int
val close_wal_sharded : sharded -> unit

val oracle_sharded : sharded -> Si_query.Ast.t -> (int * int) list
(** Brute force over every shard's corpus + delta, remapped to global
    tids — the sharded reference answer. *)

val scrub_sharded : ?budget:Scrub.budget -> sharded -> Scrub.report array
(** One budgeted {!scrub} pass per member shard (each gets the full
    budget), in shard order. *)

val repair_sharded : ?shard:int -> sharded -> (int, Si_error.t) result
(** {!repair} one member shard (or all, default), serialized with the
    sharded write lock.  A repaired member is served after
    {!reopen_shard} flips it in. *)

val quarantined_shards : sharded -> int list
(** Indexes of member shards currently answering from the fallback —
    what [HEALTH] reports as integrity degradation. *)

val integrity_sharded : sharded -> integrity_stats
(** Fold of the members' {!integrity}: worst state, summed counters. *)

val sentence_sharded : sharded -> int -> Si_treebank.Tree.t
(** The tree with {e global} id [g] — routed to its shard, binary-
    searched to its local position. *)
