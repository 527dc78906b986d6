open Si_treebank

(* The evaluators' view of the corpus: dense tids -> annotated trees.
   [Mem] is the fully-materialized array of an in-memory build or WAL
   delta; [Store] reads trees out of a mapped {!Treestore} on demand,
   which is what makes the O(1) open possible — no parse of the whole
   corpus before the first query. *)

type t = Mem of Annotated.t array | Store of Treestore.t

let of_array a = Mem a
let of_store s = Store s

let length = function
  | Mem a -> Array.length a
  | Store s -> Treestore.length s

let get t tid =
  match t with Mem a -> a.(tid) | Store s -> Treestore.get s tid

let store = function Mem _ -> None | Store s -> Some s

let to_array = function
  | Mem a -> a
  | Store s -> Array.init (Treestore.length s) (Treestore.get s)
