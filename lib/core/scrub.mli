(** Incremental integrity scrub over the lazily-verified mapped regions
    of an SIDX4 prefix (DESIGN.md §15).

    The O(1) SIDX4 open defers region CRC verification to first use,
    which moves corruption discovery to query time; the scrub closes that
    window by proactively hashing every lazily-verified region — the
    [.idx] key index, key directory and postings, and the [.trees]
    offsets and trees regions — under a byte/deadline budget, resuming
    across passes through a {!cursor}.  A CRC-failed postings region is
    localized to keys (defensive per-slot decodes) and a CRC-failed trees
    region to tids (defensive per-tid decodes); directory/offset damage
    has no finer grain than the region.

    The scrub is read-only except for the lazy verification flags of
    regions it proved {e clean} (so later queries skip the first-use CRC
    pass).  Quarantine policy — what to do about what it found — lives in
    {!Si}, which folds the report.  Failpoints: [scrub.pass] at every
    pass entry, [scrub.region] as each region's hash completes. *)

type budget = { max_bytes : int option; deadline_ns : int option }
(** Per-pass budget: stop after hashing [max_bytes] (localization decode
    work is charged by its region size) or after [deadline_ns] on the
    monotonic clock, whichever comes first.  [None] = unbounded. *)

val unbudgeted : budget

val budget : ?max_bytes:int -> ?deadline_ms:float -> unit -> budget

type report = {
  bytes_verified : int;  (** bytes charged against the budget this pass *)
  regions_ok : string list;  (** regions proved clean so far this cycle *)
  bad_regions : string list;  (** regions whose CRC failed this cycle *)
  bad_keys : string list;
      (** keys whose postings fail to decode (postings-region damage,
          localized) *)
  bad_trees : int list;
      (** tids whose records fail to decode (trees-region damage,
          localized) *)
  complete : bool;  (** the cursor wrapped: a full cycle just finished *)
  clean : bool;  (** [complete] and the cycle found nothing bad *)
}

type cursor
(** Resumable position inside one scrub cycle, including the partial
    checksum of the region being hashed.  One per handle generation — a
    cursor must not outlive the index/store it was walking (a repair or
    swap invalidates it). *)

val cursor : unit -> cursor

val pass :
  ?budget:budget ->
  cursor ->
  index:Builder.t ->
  store:Treestore.t option ->
  report
(** Run one budgeted scrub pass, resuming where the cursor stopped.  A
    heap (in-memory) index with no store has nothing lazily verified and
    completes clean immediately.  Never raises on corrupt bytes — damage
    is reported, not thrown. *)
