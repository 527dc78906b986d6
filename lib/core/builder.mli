(** Index construction (shard / merge / finalize) and the flattened [.idx]
    file (SIDX2).

    {b Construction} streams the corpus once per shard: each tree's subtree
    instances (sizes 1..mss) are enumerated in canonical form and appended
    to their key's accumulation under the chosen coding (filter postings
    dedup to unique tids, root-split postings dedup to unique
    [(tid, root)]).  Because trees are processed in tid order and instances
    in pre-order of their roots, postings come out sorted without a sort
    pass.  With [~domains:n > 1] the corpus is split into [n] contiguous
    tid ranges built concurrently on OCaml 5 domains; the per-domain key
    tables are then merged in shard order, which reproduces the sequential
    accumulation exactly — the parallel build is byte-identical to the
    sequential one (the differential tests assert this on saved files).

    {b Representation}: every posting is held as its SIDX2 packed bytes
    ({!Coding.pack}); the same bytes are written to disk, so [save] streams
    slices and [load] only builds a key → offset table over the raw file
    (O(keys) startup), decoding a posting on first {!find} and memoizing
    the result.  Legacy SIDX1 files are still readable (decoded eagerly and
    re-packed).

    {b Integrity}: SIDX2 files end in a 32-byte footer recording the key
    directory and postings region lengths plus a CRC-32 per region (header,
    key directory, postings).  {!save} writes atomically
    ([path ^ ".tmp"], fsync, rename); {!load} verifies magic, lengths and
    all three checksums before parsing, and every decode path is
    bounds-checked — corrupt bytes surface as [Error (Corrupt _)], never a
    crash or a silently wrong posting. *)

type stats = {
  trees : int;
  nodes : int;  (** total corpus nodes *)
  keys : int;  (** distinct canonical keys *)
  postings : int;  (** total posting entries *)
  bytes : int;  (** flattened size of keys + packed postings *)
}

type enc = V2 | V3 | V4 | Unpacked
(** Container encoding of a slot's bytes: [V3] the block-skip container
    ({!Coding.pack_v3} — built indexes and SIDX3 files), [V2] the flat
    SIDX2 body (loaded from old files, still fully decodable), [V4] the
    SIDX4 interval container ({!Coding.pack_v4} — (tid, pre) names,
    resolved against the corpus store at decode time).  [Unpacked] slots
    ({!append}) have no bytes: the posting lives in [decoded] and presents
    to the cursor layer as one flat block. *)

type slot = {
  src : Coding.src;  (** backing buffer holding the packed posting bytes *)
  off : int;
  len : int;
  entries : int;  (** posting entry count (readable without decoding) *)
  enc : enc;
  mutable decoded : Coding.posting option;  (** memoized decode *)
}

type mapped
(** The mmap-resident SIDX4 backend: the whole [.idx] consumed in place
    through {!Coding.src} views, key lookups binary-searching the mapped
    key index.  Region CRCs verify lazily (directory on first find,
    postings on first decode). *)

type t = {
  scheme : Coding.scheme;
  mss : int;
  table : (string, slot) Hashtbl.t;
      (** key bytes -> packed posting; empty for mapped indexes *)
  stats : stats;
  origin : string;
      (** where the index came from: the [.idx] path for loaded indexes,
          ["<memory>"] for built ones — used as the [path] of corruption
          errors raised on lazy posting decode *)
  file_crc : int option;
      (** CRC-32 of the exact on-disk bytes for loaded indexes, [None] for
          built ones {e and} for mapped SIDX4 indexes (whose integrity is
          the footer + per-region CRCs) — cross-checked against the
          [.meta] sidecar's [idx_crc] record so a crash that leaves a new
          [.idx] next to old sibling files (or vice versa) is caught at
          load, not answered from silently (see {!Si.load}) *)
  mapped : mapped option;  (** [Some] iff the index is a mapped SIDX4 *)
}

val build :
  ?domains:int ->
  ?block_entries:int ->
  ?label_id:(int -> int) ->
  scheme:Coding.scheme ->
  mss:int ->
  Si_treebank.Annotated.t array ->
  t
(** [build ?domains ~scheme ~mss docs] — [domains] defaults to 1
    (sequential); higher values shard the corpus across that many OCaml
    domains.  The result is independent of [domains].  [block_entries]
    (default {!Coding.default_block_entries}) sets the v3 block size;
    tests use small values to force blocking on small corpora.
    [label_id] remaps process-global label ids into the id space the keys
    are encoded in (default identity) — the WAL delta index is built in
    the stored index's id space so its keys unify with the main postings
    at query and checkpoint time (DESIGN.md §13). *)

val append :
  ?label_id:(int -> int) -> t -> Si_treebank.Annotated.t array -> t
(** [append t docs] — the index over [t]'s trees followed by [docs], whose
    tids continue from [t]'s tree count.  Only [docs] are accumulated;
    each touched key's new entries are concatenated behind its old
    posting, untouched slots are shared with [t], and [t] itself is left
    unchanged (readers holding it keep a consistent snapshot).  Work is
    the extraction of [docs] plus copying the key table's bindings and
    the touched postings — no re-extraction of [t]'s trees.  Touched
    slots are [Unpacked]; [stats.bytes] reads 0 because nothing is packed
    until {!merge_append} (or a save) encodes the postings.  [label_id]
    as for {!build}.  Heap indexes only: [Invalid_argument] on a mapped
    one. *)

val merge_append : ?block_entries:int -> t -> t -> tid_base:int -> t
(** [merge_append main delta ~tid_base] — checkpoint compaction: a fresh
    heap index over [main]'s trees followed by [delta]'s, with [delta]'s
    local tids shifted by [tid_base] (which must equal [main]'s tree
    count — [Invalid_argument] otherwise).  Both sides must share the
    scheme, [mss] {e and key id space} (the delta is built with the
    stored [label_id] — see {!build}); mismatched scheme/mss raise
    [Si_error.Error (Schema_mismatch _)].  Decodes every posting of both
    sides (checkpoint-rate, not query-rate).  Failpoint:
    [si.checkpoint.merge] before any decoding. *)

val find : t -> string -> (Coding.posting option, Si_error.t) result
(** Decode-on-first-use: unpacks the slot's bytes once and memoizes.
    [Ok None] if the key is absent; [Error (Corrupt _)] if the stored bytes
    do not decode to a well-formed posting of exactly the recorded length. *)

val find_exn : t -> string -> Coding.posting option
(** {!find} for callers already inside an {!Si_error.guard}: raises
    [Si_error.Error] instead of returning [Error]. *)

val posting_entries : t -> string -> int option
(** Entry count of a key's posting without decoding it. *)

val n_keys : t -> int

val iter : t -> (string -> Coding.posting -> unit) -> unit
(** Iterate (key, decoded posting) in sorted key order — decodes every
    posting; for tests and tools, not hot paths.  Raises [Si_error.Error]
    if a stored posting fails to decode. *)

val length_histogram : t -> (int * int) list
(** [(bucket, count)] pairs, bucket = power-of-two upper bound on posting
    entries: count of keys with [entries <= bucket] (and > previous
    bucket).  Computed from slot metadata, no decoding. *)

val block_histogram : t -> (int * int) list
(** [(nblocks, count)] pairs: number of keys whose posting is laid out in
    exactly [nblocks] blocks (flat postings and V2 slots count as 1).
    Parses container headers only.  Raises [Si_error.Error] on corrupt
    container bytes. *)

val find_blocks : t -> string -> (slot * Coding.block array) option
(** The block layout of a key's posting without decoding any entries —
    the entry point of the streaming cursor path.  V2 slots present as a
    single flat block.  Raises [Si_error.Error] on corrupt container
    bytes. *)

val decode_block : t -> string -> slot -> Coding.block -> Coding.posting
(** [decode_block t key slot b] decodes one block of [key]'s posting
    (does {e not} touch [slot.decoded]).  Raises [Si_error.Error] on
    corrupt bytes. *)

val save : t -> string -> (unit, Si_error.t) result
(** [save t path] streams the SIDX3 index: an 8-byte header (magic, scheme,
    mss), the key directory (key count, then sorted records of front-coded
    key + posting length), the concatenated v3 posting containers, and the
    32-byte integrity footer (region lengths + three CRC-32s).  The write
    is atomic: [path ^ ".tmp"] + fsync + rename, so a crash or [Error (Io _)]
    leaves any existing file at [path] untouched.  Peak extra memory is one
    record (plus re-encoded postings when the index was loaded from an
    older container version). *)

val save_v2 : t -> string -> (unit, Si_error.t) result
(** SIDX2 writer (same container, flat posting bodies) — kept for the
    back-compat tests and the size baseline in the bench harness.  Atomic
    like {!save}. *)

val save_v1 : t -> string -> (unit, Si_error.t) result
(** Legacy SIDX1 writer (eager postings, no front coding, no footer) — kept
    for the size baseline in the bench harness and the migration test.
    Atomic like {!save}. *)

val default_key_block : int
(** Keys per SIDX4 key-directory block (64). *)

val save_v4 : ?key_block:int -> t -> string -> (unit, Si_error.t) result
(** SIDX4 writer: header, fixed-stride key index (one 16-byte record per
    key-directory block of [key_block] keys), front-coded key directory
    with embedded entry counts and posting lengths, postings (interval
    postings re-encoded as {!Coding.pack_v4} (tid, pre)-name containers;
    filter / root-split postings stay v3), and a 72-byte footer with one
    CRC-32 per region.  The result is designed to be consumed in place by
    {!load} via [mmap]; interval postings additionally require the
    [.trees] corpus store sibling that {!Si.save} writes.  Atomic like
    {!save}. *)

val load : string -> (t, Si_error.t) result
(** Inverse of {!save}: verifies the footer (magic, region lengths, all
    three checksums) before parsing, then builds the key → offset table in
    one bounds-checked pass, deferring posting decode to {!find}.  Also
    accepts SIDX2 files (same container, flat postings — slots stay [V2]
    in memory and re-encode on {!save}) and SIDX1 files (eager,
    defensively decoded — but unchecksummed, so only structural corruption
    is detectable).  Errors: [Io] if the file
    cannot be read; [Corrupt] for an empty file, a truncated header, a bad
    magic, a footer/checksum mismatch, or any malformed record.  The
    [trees]/[nodes] stats are not stored and read back as 0; [Si] restores
    them from the [.meta].

    SIDX4 files take a different path entirely: the file is mapped, only
    the footer and header CRCs are verified (O(1) in the index size), and
    no key table is built — {!find} binary-searches the mapped key index,
    verifying the directory region CRCs on the first lookup and the
    postings CRC on the first decode.  Interval postings cannot decode
    until {!set_resolve} attaches the corpus store ({!Si.open_} does);
    without it they raise [Schema_mismatch]. *)

(** {2 Mapped (SIDX4) introspection} *)

type region_state = {
  rname : string;
  rbytes : int;
  rverified : bool;  (** CRC checked (lazily) since open *)
}

type mapped_stats = {
  mapped_bytes : int;  (** size of the mapping = the whole [.idx] *)
  resident_estimate : int;
      (** bytes plausibly faulted in: header + footer + every region whose
          CRC pass has run (a CRC touches all its pages) *)
  regions : region_state list;  (** kindex / keydir / postings *)
}

val is_mapped : t -> bool
val mapped_stats : t -> mapped_stats option

val verify_mapped : t -> (unit, Si_error.t) result
(** Force the lazy region CRC verification now (all three regions).
    [Error (Corrupt _)] on a checksum mismatch.  [Ok ()] on heap indexes
    (fully verified at load). *)

(** {2 Incremental scrub support (DESIGN.md §15)} *)

val scrub_regions : t -> (string * int * int * int) list
(** The lazily-verified mapped regions as [(name, offset, length, crc)]
    in file order — ["kindex"], ["keydir"], ["postings"] for an SIDX4
    index; [[]] for heap indexes, which were fully verified at load. *)

val scrub_feed : t -> Crc32.t -> off:int -> len:int -> Crc32.t
(** Fold [len] mapped bytes at [off] into a running checksum — the scrub
    verifies a region in budget-sized increments across passes.  Returns
    [crc] unchanged on heap indexes. *)

val scrub_commit : t -> [ `Dir | `Postings ] -> unit
(** Mark a region group's lazy verification as done (the scrub proved the
    CRCs out of band): [`Dir] covers the key index {e and} key directory
    (one flag — commit only after both passed), [`Postings] the postings
    region.  No-op on heap indexes. *)

val scrub_slots : t -> string list
(** Defensively decode every mapped posting (without the whole-region CRC
    gate) and return the keys whose bytes fail to decode — the scrub's
    damage localizer for a postings region whose CRC failed.  Requires an
    intact key directory: raises [Si_error.Error] [Corrupt] if the
    directory itself cannot be walked.  [[]] on heap indexes. *)

val set_resolve : t -> (int -> int -> Coding.interval) -> unit
(** Attach the [(tid, pre) -> interval] resolver backing V4 posting
    decode — a closure over the [.trees] corpus store.  No-op on heap
    indexes. *)
