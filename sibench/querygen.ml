(* Seeded query generator in the paper's frequency-based (FB) style.

   Queries are connected subtrees of size 2..8 sampled from held-out
   trees, so every query matches at least its source tree's shape while
   its selectivity over the indexed corpus varies.  Each label falls in
   a frequency band by its occurrence count in the indexed corpus — H
   (at least one per 10 trees), M (at least one per 100 trees), L (rarer)
   — and a query's class is the set of bands its labels cover, giving 7
   classes.  A pool is drawn round-robin over (class, size) cells, a
   cell the held-out trees cannot fill falling back to any class of that
   size; {!stratify} then picks the mix from the pool evenly over
   selectivity. *)

open Si_treebank
module Prng = Si_grammar.Prng

type band = H | M | L

type t = {
  text : string;  (** the query in [Si_query.Parser] syntax *)
  descendant : bool;  (** has a [//] edge *)
}

let classes = [| "H"; "M"; "L"; "HM"; "HL"; "ML"; "HML" |]

let label_counts (docs : Annotated.t array) =
  let counts = Hashtbl.create 4096 in
  Array.iter
    (fun (d : Annotated.t) ->
      Array.iter
        (fun l ->
          Hashtbl.replace counts l
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
        d.Annotated.label)
    docs;
  counts

let band ~n_trees counts l =
  let c = Option.value ~default:0 (Hashtbl.find_opt counts l) in
  if c * 10 >= n_trees then H else if c * 100 >= n_trees then M else L

let class_of bands =
  String.concat ""
    (List.filter_map
       (fun (b, s) -> if List.mem b bands then Some s else None)
       [ (H, "H"); (M, "M"); (L, "L") ])

(* A random connected fragment of [size] nodes rooted at a random inner
   node of [d], grown by adding random frontier children.  With [desc],
   one fragment leaf below the root is swapped for a proper descendant of
   its data node, hung from the leaf's parent by a [//] edge — the source
   tree still embeds the query. *)
let sample rng (d : Annotated.t) ~size ~desc =
  let n = Annotated.size d in
  let root = Prng.int rng n in
  if d.Annotated.children.(root) = [] then None
  else begin
    let inside = Hashtbl.create 16 in
    Hashtbl.replace inside root ();
    let frontier = ref d.Annotated.children.(root) in
    let count = ref 1 in
    while !count < size && !frontier <> [] do
      let arr = Array.of_list !frontier in
      let v = Prng.pick rng arr in
      Hashtbl.replace inside v ();
      incr count;
      frontier :=
        List.filter (fun u -> u <> v) !frontier @ d.Annotated.children.(v)
    done;
    if !count < size then None
    else begin
      (* leaves of the fragment (other than the root) that have data
         descendants: candidates for the // swap *)
      let swap =
        if not desc then None
        else
          let leaves =
            Hashtbl.fold
              (fun v () acc ->
                if
                  v <> root
                  && List.for_all
                       (fun c -> not (Hashtbl.mem inside c))
                       d.Annotated.children.(v)
                  && d.Annotated.children.(v) <> []
                then v :: acc
                else acc)
              inside []
            |> List.sort compare |> Array.of_list
          in
          if Array.length leaves = 0 then None
          else
            let v = Prng.pick rng leaves in
            let below = Array.of_list (Annotated.descendants d v) in
            Some (v, Prng.pick rng below)
      in
      if desc && swap = None then None
      else
        let name u = Label.name d.Annotated.label.(u) in
        let rec build u =
          Si_query.Ast.make (name u)
            (List.filter_map
               (fun c ->
                 if not (Hashtbl.mem inside c) then None
                 else
                   match swap with
                   | Some (v, w) when v = c ->
                       Some (Si_query.Ast.Descendant, build_leaf w)
                   | _ -> Some (Si_query.Ast.Child, build c))
               d.Annotated.children.(u))
        and build_leaf w = Si_query.Ast.make (name w) [] in
        let labels =
          Hashtbl.fold
            (fun v () acc ->
              match swap with
              | Some (sv, w) when sv = v -> d.Annotated.label.(w) :: acc
              | _ -> d.Annotated.label.(v) :: acc)
            inside []
        in
        Some (build root, labels)
    end
  end

(* [generate ~seed ~corpus ~held_out ~count ~min_size ~max_size
   ~accept_class] — [count] distinct queries whose class passes
   [accept_class].  Every fourth carries a [//] edge. *)
let generate ~seed ~(corpus : Annotated.t array) ~(held_out : Annotated.t array)
    ~count ~min_size ~max_size ~(accept_class : string -> bool) =
  let rng = Prng.create seed in
  let counts = label_counts corpus in
  let n_trees = Array.length corpus in
  let cells = Array.of_list (List.filter accept_class (Array.to_list classes)) in
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] and found = ref 0 in
  let i = ref 0 in
  let attempts_total = ref 0 in
  while !found < count do
    if !attempts_total > 400 * count then
      failwith "querygen: held-out trees cannot supply enough distinct queries";
    let want = cells.(!i mod Array.length cells) in
    let size = min_size + (!i / Array.length cells mod (max_size - min_size + 1)) in
    let desc = !i mod 4 = 3 in
    let rec attempt k =
      incr attempts_total;
      let d = Prng.pick rng held_out in
      match sample rng d ~size ~desc with
      | None -> if k > 0 then attempt (k - 1) else None
      | Some (ast, labels) ->
          let text = Si_query.Ast.to_string ast in
          let klass =
            class_of
              (List.sort_uniq compare (List.map (band ~n_trees counts) labels))
          in
          if Hashtbl.mem seen text || not (accept_class klass) then
            if k > 0 then attempt (k - 1) else None
          else if klass = want || k = 0 then
            Some { text; descendant = desc }
          else attempt (k - 1)
    in
    (match attempt 200 with
    | Some q ->
        Hashtbl.replace seen q.text ();
        out := q :: !out;
        incr found
    | None -> ());
    incr i
  done;
  Array.of_list (List.rev !out)

(* Selectivity strata: a query's bucket is the number of these edges its
   corpus match count reaches, so buckets run 0, 1-2, 3-9, ..., 2000-3999
   and 4000 up, about half a decade each.  Costs span four orders of
   magnitude across the buckets, so a mix balanced over them has nearly
   the same cost distribution at every seed. *)
let edges = [| 1; 3; 10; 30; 100; 300; 1000; 2000; 4000 |]

let bucket m = Array.fold_left (fun acc e -> if m >= e then acc + 1 else acc) 0 edges

(* [stratify ~count matches] — indices of [count] pool members taken
   round-robin over the selectivity buckets ([matches.(i)] is member
   [i]'s corpus match count; a negative count leaves the member out),
   each bucket in pool order; a bucket that runs dry leaves its turns to
   the others. *)
let stratify ~count matches =
  let nb = Array.length edges + 1 in
  let buckets = Array.make nb [] in
  for i = Array.length matches - 1 downto 0 do
    if matches.(i) >= 0 then
      let b = bucket matches.(i) in
      buckets.(b) <- i :: buckets.(b)
  done;
  let out = ref [] and taken = ref 0 in
  while !taken < count && Array.exists (( <> ) []) buckets do
    for b = 0 to nb - 1 do
      match buckets.(b) with
      | i :: rest when !taken < count ->
          out := i :: !out;
          buckets.(b) <- rest;
          incr taken
      | _ -> ()
    done
  done;
  if !taken < count then failwith "querygen: the pool holds too few queries";
  List.rev !out
