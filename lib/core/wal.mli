(** Write-ahead log of tree insertions (DESIGN.md §13).

    An index prefix may carry a sibling [prefix.wal] holding the trees
    inserted since the last checkpoint.  The log is append-only and
    self-describing: an 8-byte header binds it to the index's coding
    scheme and [mss], and each record is an independently CRC-framed
    [(global tid, Penn text)] pair, fsync'd before {!append} returns
    (one fsync per call, however many records it frames).

    Global tids make replay idempotent: a record whose tid is already
    covered by the main index is skipped, so replaying the same log twice
    — or replaying after a checkpoint published but crashed before
    truncation — is a no-op for the covered prefix ({!Si.open_} enforces
    the contiguity of the remainder).

    A torn tail (crash mid-append) is tolerated everywhere: {!replay}
    stops at the first incomplete or checksum-failing frame, and
    {!open_append} truncates it before accepting new records.  A frame
    whose CRC verifies but whose payload does not parse is {e corruption}
    (not a crash artifact) and raises [Si_error.Error (Corrupt _)]. *)

type t
(** An open append handle.  Not thread-safe — callers serialize
    ({!Si.insert} holds the handle's insert lock). *)

val path : string -> string
(** [path prefix] is [prefix ^ ".wal"]. *)

val replay : scheme:Coding.scheme -> mss:int -> string -> (int * Si_treebank.Tree.t) list
(** [replay ~scheme ~mss prefix] reads every intact record of
    [path prefix], in log order, without modifying the file (an absent
    file is an empty log — opening an index never creates one).  Raises
    [Si_error.Error]: [Schema_mismatch] when the header's scheme/mss
    disagree with the index, [Corrupt] on a bad header or a CRC-valid
    frame whose payload is malformed. *)

val open_append : scheme:Coding.scheme -> mss:int -> string -> t
(** Open [path prefix] for appending, creating it (header only, fsync'd)
    if absent.  Validates the header like {!replay}, truncates a torn
    tail, and positions at the end of the last intact record. *)

val append : t -> tid:int -> Si_treebank.Tree.t list -> unit
(** [append t ~tid trees] frames [trees] as records with consecutive tids
    [tid, tid+1, ...], writes them in one write and makes them durable
    with one fsync (group commit).  Every record is durable when [append]
    returns; a crash during the write leaves a whole-frame prefix of the
    batch, which {!replay} accepts.  A write or fsync that raises is
    rolled back — the log is cut back to its last acknowledged byte and
    the offset moved there — so a later append on the same handle never
    lands behind unacknowledged frames.  If the rollback itself fails the
    log is closed and {!broken}; every later [append] / {!truncate} raises
    [Si_error.Error (Io _)].  Failpoints: [wal.append.write] before the
    batch is written, [wal.append.fsync] between write and fsync. *)

val records : t -> int
(** Intact records in the log (replayed count plus appends). *)

val bytes : t -> int
(** Current log size in bytes, header included. *)

val broken : t -> bool
(** A failed append could not be rolled back: the log's tail holds
    unacknowledged frames and the handle is closed for good. *)

val truncate : t -> unit
(** Drop every record: ftruncate back to the header and fsync — atomic
    with respect to a crash (the header alone is a valid empty log).
    Failpoint: [wal.truncate] before the ftruncate. *)

val close : t -> unit
(** Close the descriptor.  Idempotent. *)
