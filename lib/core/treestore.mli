(** Zero-copy corpus store — the [.trees] sibling of an SIDX4 prefix.

    Trees live in the file in contiguous DFS order: per tree a node count,
    the preorder label ids (in the *stored* id space of the [.labels]
    sibling) and a balanced-parentheses bitmap (1 bit on entering a node,
    0 on leaving).  A u64 offset table makes tid -> record an O(1) array
    read, and the BP scan reconstructs exactly the {!Annotated.t} a Penn
    re-parse would build — (pre, post, level), parent and children arrays
    — so post-validation and subtree extraction never parse Penn
    bracketing.  This is also the structure the SIDX4 interval postings
    share: they store only node *names* (tid, preorder rank) and resolve
    intervals against this store at decode time.

    {!open_} is O(1): map the file, verify the footer and header CRCs
    (52 fixed bytes), validate the region table.  The offsets and trees
    region CRCs are verified lazily on the first {!get}; trees materialize
    on demand into a per-tid memo (a benign-race memo — safe to share
    across query domains). *)

type t

val save : string -> relabel:(int -> int) -> Si_treebank.Annotated.t array -> unit
(** Serialize a corpus to [path] (plain write + fsync — callers stage to a
    temporary and rename, like the other prefix siblings).  [relabel]
    translates each node's live interned label id into the stored-id
    space of the [.labels] sibling being published alongside — the two
    id spaces diverge whenever the saving process interned labels in a
    different order than the stored table (e.g. a checkpoint in a
    process that replayed a WAL before touching the mapped corpus). *)

val open_ : relabel:(int -> int) -> string -> t
(** Map a store.  [relabel] translates stored label ids to live interned
    ids and must reject out-of-range ids with an {!Si_error} raise.
    Raises {!Si_error.Error}: [Io] on mapping failure, [Corrupt] on a
    damaged header, footer or region table. *)

val length : t -> int
(** Number of trees. *)

val get : t -> int -> Si_treebank.Annotated.t
(** Materialize tree [tid] (memoized).  First call verifies the body
    region CRCs.  Raises [Corrupt] on an out-of-range tid or damaged
    record — never crashes on hostile bytes. *)

val mapped_bytes : t -> int
val body_verified : t -> bool

val verify : t -> unit
(** Force the lazy body CRC verification now.  Raises [Corrupt]. *)

val crc_state : t -> (string * int * bool) list
(** Per-region [(name, bytes, verified)] for [stats]. *)

(** {2 Incremental scrub support (DESIGN.md §15)} *)

val scrub_regions : t -> (string * int * int * int) list
(** The two lazily-verified regions as [(name, offset, length, crc)] in
    file order: ["ts_offsets"], ["ts_trees"]. *)

val scrub_feed : t -> Crc32.t -> off:int -> len:int -> Crc32.t
(** Fold [len] mapped bytes at [off] into a running checksum. *)

val scrub_commit : t -> unit
(** Mark the lazy body verification done (the scrub proved {e both}
    region CRCs out of band — call only after ts_offsets and ts_trees
    both passed). *)

val scrub_decode : t -> int -> (unit, Si_error.t) result
(** Defensively decode tree [tid] without the whole-region CRC gate or
    the memo — the scrub's damage localizer for a CRC-failing trees
    region. *)
