(** The three posting codings of the Subtree Index (paper §3.2).

    For an index key (a unique subtree shape), a posting records where its
    instances occur:

    - {b filter-based} — sorted unique tree ids; querying must post-validate
      candidate trees.
    - {b subtree interval} — per instance, [(pre, post, level)] of *every*
      key node in canonical order; exact matching via structural joins.
    - {b root-split} — per instance, [(pre, post, level)] of the instance
      *root* only, deduplicated per [(tid, root)]; exact matching via joins
      on cover roots (the paper's contribution).

    Postings are packed into the v3 block container ({!pack_v3}); SIDX4
    files carry interval postings in the v4 slice encoding ({!pack_v4})
    and filter / root-split postings as v3 bytes. *)

type scheme = Filter | Interval | Root_split

val scheme_to_string : scheme -> string
(** ["filter" | "interval" | "root-split"], as accepted by the CLI. *)

val scheme_of_string : string -> (scheme, string) result

type interval = { pre : int; post : int; level : int }

val pp_interval : Format.formatter -> interval -> unit

type posting =
  | Filter_p of int array  (** sorted unique tids *)
  | Interval_p of (int * interval array) array
      (** (tid, intervals per canonical key position), sorted by tid *)
  | Root_p of (int * interval) array
      (** (tid, root interval), sorted by (tid, pre), unique *)

val entries : posting -> int
(** Number of posting entries. *)

val tid_at : posting -> int -> int
(** [tid_at p i] is the tree id of entry [i] — constructor-agnostic. *)

val heap_bytes : posting -> int
(** Estimated decoded heap footprint in bytes, the {!Cache} cost of a
    decoded posting or block. *)

(** {1 Byte sources}

    Decoding reads through {!src}: an in-heap string (the postings of an
    in-memory build) or a memory-mapped byte view (an opened SIDX4 file,
    consumed in place, zero-copy).  The per-byte loops are specialised per constructor,
    so the string path keeps its pre-mmap performance. *)

type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The element type of [Unix.map_file] with [Bigarray.char]. *)

type src = Str of string | Map of bigstring

val str : string -> src
val map_src : bigstring -> src

val src_length : src -> int

val src_get : src -> int -> char
(** Unchecked byte access — callers bound offsets themselves. *)

val src_sub : src -> int -> int -> string
(** [src_sub src off len] copies [len] bytes out as a string (bounds
    checked; raises [Invalid_argument]).  Used for key bytes, never for
    posting regions — postings decode in place. *)

exception Malformed of { offset : int; what : string }
(** Raised by every decoding function on bytes that are not a well-formed
    posting: truncated or overlong varints, entry counts exceeding the
    remaining bytes, negative or overflowing values.  {!Builder} maps it to
    {!Si_error.Corrupt} with the file path attached. *)

val checked_varint : limit:int -> src -> int -> int * int
(** [checked_varint ~limit s off] is [(value, next_off)], reading strictly
    below [limit] (clamped to [src_length s]); raises {!Malformed}
    instead of [Invalid_argument], with the failing offset.  The shared
    primitive of the defensive decode paths ({!Builder} uses it for the
    SIDX4 key directory as well). *)

(** {1 v3 block container}

    A v3 posting wraps an entry slice in a block container.  The leading
    varint is [(count << 1) | blocked].  Flat postings ([blocked = 0],
    whenever [count <= block_entries]) are followed by one slice of all
    entries.  Blocked postings carry the block size [B], then a skip table
    of [ceil count/B] records — (first tid delta vs the previous block,
    block byte length) — then the concatenated block bodies.

    A slice delta-codes tids; each interval stores [(pre, size-1, level)]
    using the identity [post = pre + size - 1 - level], so sizes (small)
    replace postorder ranks (corpus-wide); non-root instance nodes pack
    [pre]/[level] as offsets from the instance root, and within a tid run
    the root [pre] is delta-coded against the previous entry.  Every slice
    writes its first entry absolutely, so a block is decodable in
    isolation — which is what lets intersections and joins seek by tid over
    compressed bytes and decode only the blocks they touch.

    The delta coding is only injective on postings satisfying the
    builder's ordering invariants, so the packers validate them — tids
    sorted (strictly, for filter postings), root [pre]s non-decreasing
    within a tid run, instance nodes at or below their root, every
    interval honouring the [post = pre + size - 1 - level] identity — and
    raise [Invalid_argument] with a clear message rather than encoding
    bytes that would decode to a different posting. *)

val default_block_entries : int
(** 128 — build-time default; the value used is written into the bytes, so
    readers never assume it. *)

type block = {
  first_tid : int;  (** from the skip table; [-1] for a flat posting *)
  boff : int;  (** byte offset of the block body *)
  blen : int;  (** byte length of the block body *)
  bentries : int;  (** entries in this block *)
}

val pack_v3 : ?block_entries:int -> Buffer.t -> posting -> unit
(** Pack with the v3 container.  Validates the posting (see above); raises
    [Invalid_argument] on an invalid posting or [block_entries < 1]. *)

val v3_layout : scheme -> ?limit:int -> src -> int -> int * block array
(** [v3_layout scheme s off] parses only the container header and skip
    table: [(count, blocks)].  A flat posting yields one block with
    [first_tid = -1].  Validates [B >= 1], that a blocked posting exceeds
    one block, that skip records fit the remaining bytes (before any
    allocation), that block lengths tile the byte range exactly, and — for
    filter postings — that block first tids are strictly increasing.
    Raises {!Malformed}. *)

val unpack_block : scheme -> key_size:int -> src -> block -> posting
(** Decode one block.  Checks the body fills exactly [blen] bytes and that
    its first tid matches the skip table.  Raises {!Malformed}. *)

val unpack_v3 : scheme -> key_size:int -> ?limit:int -> src -> int -> posting * int
(** Decode a whole v3 posting (all blocks, concatenated), additionally
    validating cross-block tid monotonicity.  Bounds-checked against
    [limit] (default: end of [s]); validates every entry count against the
    remaining bytes before allocating.  Returns the posting and the next
    offset.  Raises {!Malformed}. *)

(** {1 SIDX4 interval slices}

    In an SIDX4 file the tree structure lives once, succinctly, in the
    mapped corpus store ({!Treestore}), so interval postings only *name*
    nodes: tid plus preorder ranks — one varint per node instead of three.
    The container framing is exactly the v3 layout ({!v3_layout} parses v4
    postings unchanged); decoding takes a [resolve] closure
    ([tid -> pre -> interval], backed by the store) that reconstructs the
    exact intervals v3 would have carried, so query results stay
    byte-identical.  [resolve] is the bounds authority for both arguments:
    a corrupt tid or pre must surface as its error, never as a crash.
    Filter and root-split postings carry no redundant structure and stay in
    v3 bytes inside SIDX4 files. *)

val pack_v4 : ?block_entries:int -> Buffer.t -> posting -> unit
(** Pack an interval posting with the v4 slice encoding inside the v3
    container.  Validates like {!pack_v3}; raises [Invalid_argument] on a
    non-interval posting or [block_entries < 1]. *)

val unpack_block_v4 :
  key_size:int -> resolve:(int -> int -> interval) -> src -> block -> posting
(** Decode one v4 block; same checks as {!unpack_block}. *)

val unpack_v4 :
  key_size:int ->
  resolve:(int -> int -> interval) ->
  ?limit:int ->
  src ->
  int ->
  posting * int
(** Decode a whole v4 posting; same checks as {!unpack_v3}. *)
