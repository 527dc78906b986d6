(** The evaluators' view of the corpus: dense tids -> annotated trees.

    Either a fully-materialized array (an in-memory build, the WAL delta)
    or a mapped {!Treestore} materializing trees on demand (an opened
    prefix).  [get] on a
    [Store] raises {!Si_error.Error} [Corrupt] for out-of-range tids or a
    damaged store — callers treat it exactly like a corrupt posting. *)

type t

val of_array : Si_treebank.Annotated.t array -> t
val of_store : Treestore.t -> t
val length : t -> int

val get : t -> int -> Si_treebank.Annotated.t
(** [Mem]: plain array access ([Invalid_argument] on bad tid — the
    evaluators bounds-check first).  [Store]: memoized decode. *)

val store : t -> Treestore.t option

val to_array : t -> Si_treebank.Annotated.t array
(** Materialize everything — oracle and test paths only. *)
