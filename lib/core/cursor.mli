(** Streaming cursor over one key's posting blocks — the serving read path.

    A cursor walks a posting's entries in order without decoding the whole
    posting: the v3 skip table ({!Coding.v3_layout}) gives each block's
    first tid and byte extent, so {!seek} binary-searches the skip table,
    decodes only the one block that can straddle the target, and {!peek}
    at an undecoded block boundary answers straight from the skip table.
    Intersections and merge joins gallop over compressed bytes, touching
    only the blocks whose tid range they actually visit.

    Decoded blocks go through an optional {!Cache.t} keyed by
    [(key, block index)] so repeated queries share decode work within a
    bounded byte budget; without a cache each block decodes on demand and
    is dropped when the cursor moves on.  The cursor never touches the
    slot's [decoded] memo field, so cursors over one shared index handle
    are safe across domains (each domain uses its own cache). *)

type cache = (string * int, Coding.posting) Cache.t
(** Decoded-block cache, keyed by (index key, block index).  One per
    domain — {!Cache.t} is not thread-safe. *)

val create_cache : ?budget:int -> unit -> cache
(** Budget in bytes (default {!Cache.create}'s 64 MiB); block cost is
    {!Coding.heap_bytes}. *)

type t

val create : ?cache:cache -> ?ctx:Limits.ctx -> Builder.t -> string -> t option
(** Cursor positioned at the key's first entry; [None] if the key is
    absent.  Raises [Si_error.Error] on corrupt container bytes.

    [ctx] is the governing query's resource gauge: each block decode
    charges {!Limits.charge_decode} with the block's decoded heap bytes
    (through the cache's miss hook, so cache hits are free) and each
    {!seek} counts a {!Limits.step} — a governed query overruns by at
    most one block before the limit surfaces. *)

val entries : t -> int
(** Total entries of the posting (from slot metadata, no decoding). *)

val exhausted : t -> bool

val peek : t -> int option
(** Tid of the current entry, [None] when exhausted.  Free of decoding
    when positioned at the start of a block with a skip-table record. *)

val peek_tid : t -> int
(** {!peek} without the option box for hot loops: the current entry's tid,
    or [-1] when exhausted (tids are never negative). *)

val current : t -> Coding.posting * int
(** The current block's decoded posting and the entry index within it —
    decodes (through the cache) on demand.  Undefined when {!exhausted}. *)

val advance : t -> unit
(** Move to the next entry (crossing a block boundary lazily). *)

val seek : t -> int -> unit
(** [seek t tid] positions at the first remaining entry with tid [>= tid]
    (or exhausts).  Skips over blocks via the skip table, decoding at most
    the one block that can straddle the target. *)
