(** CRC-32 (IEEE 802.3, polynomial [0xedb88320]) over strings.

    Guards the on-disk regions: {!Builder.save} records one checksum per
    SIDX4 region in the file footer, and the mapped reader verifies each
    before trusting a byte of it.  The incremental API lets the scrub fold
    the checksum over a region in budget-sized steps. *)

type t
(** Running (unfinalized) checksum state. *)

val empty : t
(** State over zero bytes. *)

val feed_substring : t -> string -> int -> int -> t
(** [feed_substring c s pos len] folds [s.[pos .. pos+len-1]] into [c]. *)

val feed_string : t -> string -> t

val value : t -> int
(** Finalized checksum in [0 .. 0xffff_ffff]. *)

val string : string -> int
(** One-shot checksum of a whole string. *)

val substring : string -> int -> int -> int
(** One-shot checksum of a slice. *)

val feed_bigsub :
  t ->
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int ->
  t
(** [feed_bigsub c m pos len] folds the mapped slice
    [m.[pos .. pos+len-1]] into [c] (no bounds check — callers slice
    against region tables they already validated).  Lets the scrub verify
    a large mapped region incrementally, one budget-sized chunk per
    pass. *)

val bigsub :
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int ->
  int
(** One-shot checksum of a memory-mapped slice (bounds checked) — the
    lazily-verified SIDX4 / corpus-store regions hash in place, no copy. *)
