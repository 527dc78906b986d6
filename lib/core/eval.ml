open Si_subtree
open Si_query

let cover_for (index : Builder.t) ix =
  match index.Builder.scheme with
  | Coding.Root_split -> Cover.min_rc ix ~mss:index.Builder.mss
  | Coding.Filter | Coding.Interval -> Cover.optimal_cover ix ~mss:index.Builder.mss

(* monomorphic comparator for (tid, node) results: polymorphic compare on
   the hot result path allocates and defeats flambda *)
let cmp_pair (a1, a2) (b1, b2) =
  if a1 <> b1 then Int.compare a1 b1 else Int.compare (a2 : int) b2

(* same-label sibling pairs that live in different chunks: the injectivity
   constraints extraction does not already guarantee (DESIGN.md §6b) *)
let cross_chunk_pairs (ix : Ast.indexed) (cover : Cover.t) =
  let pairs = ref [] in
  Array.iter
    (fun kids ->
      let rec go = function
        | [] -> ()
        | x :: rest ->
            List.iter
              (fun y ->
                if
                  ix.Ast.labels.(x) = ix.Ast.labels.(y)
                  && cover.Cover.chunk_of.(x) <> cover.Cover.chunk_of.(y)
                then pairs := (x, y) :: !pairs)
              rest;
            go rest
      in
      go kids)
    ix.Ast.children;
  !pairs

let encodings_opt ~label_id frag =
  match Canonical.encodings ~label_id frag with
  | exception Not_found -> None
  | r -> Some r

(* ---- filter-based ----------------------------------------------------- *)

(* growable int buffer for intersection outputs *)
module Ibuf = struct
  type t = { mutable arr : int array; mutable len : int }

  let create n = { arr = Array.make (max n 16) 0; len = 0 }

  let push b x =
    if b.len = Array.length b.arr then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.arr 0 bigger 0 b.len;
      b.arr <- bigger
    end;
    b.arr.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.arr 0 b.len
end

let lower_bound a lo hi x =
  (* least i in [lo, hi) with a.(i) >= x; hi if none *)
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* when one side is much longer, walk the short side and gallop
   (exponential probe + binary search) through the long side *)
let gallop_skew = 16

let intersect_gallop (small : int array) (big : int array) out =
  let nb = Array.length big in
  let j = ref 0 in
  Array.iter
    (fun x ->
      if !j < nb then begin
        let bound = ref 1 in
        while !j + !bound < nb && big.(!j + !bound) < x do
          bound := !bound lsl 1
        done;
        let k = lower_bound big !j (min nb (!j + !bound + 1)) x in
        j := k;
        if k < nb && big.(k) = x then begin
          Ibuf.push out x;
          incr j
        end
      end)
    small

let intersect_merge (a : int array) (b : int array) out =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      Ibuf.push out x;
      incr i;
      incr j
    end
  done

let intersect (a : int array) (b : int array) =
  let a, b = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let out = Ibuf.create (Array.length a) in
  if Array.length b >= gallop_skew * max 1 (Array.length a) then
    intersect_gallop a b out
  else intersect_merge a b out;
  Ibuf.contents out

(* a decoded tid outside the corpus means the .idx and .trees disagree —
   a corrupt or mismatched pair of files, never a crash *)
let tree_of ~(index : Builder.t) ~corpus tid =
  if tid < 0 || tid >= Corpus.length corpus then
    Si_error.raise_corrupt ~path:index.Builder.origin ~offset:0
      (Printf.sprintf "posting tid %d outside the corpus of %d trees" tid
         (Corpus.length corpus));
  Corpus.get corpus tid

(* The ?ctx threaded below is the query's resource gauge (Limits.ctx):
   steps at merge-advance / candidate-validation granularity, decoded-byte
   charges at block (streaming) or posting (materialized) granularity, and
   result emission for max-results capping and partial degradation. *)

let step_of = function None -> fun () -> () | Some c -> fun () -> Limits.step c

(* candidate tids -> verified (tid, root) results, shared by the
   materialized and streaming filter paths; each candidate validation is a
   governed step, each verified result an emission.  [tid_base] shifts the
   index's local tids into the caller's global space (the WAL delta index
   numbers its trees from 0) — corpus access stays local, emission and
   results are global. *)
let filter_results ?ctx ?(tid_base = 0) ~index ~corpus q candidates =
  let step = step_of ctx in
  let out = ref [] in
  Array.iter
    (fun tid ->
      step ();
      List.iter
        (fun v ->
          let r = (tid + tid_base, v) in
          (match ctx with Some c -> Limits.emit c r | None -> ());
          out := r :: !out)
        (Matcher.roots (tree_of ~index ~corpus tid) q))
    candidates;
  List.sort cmp_pair !out

(* materialized paths bill a whole posting when they touch it (the
   streaming paths bill per decoded block instead) *)
let charge_posting ctx p =
  match ctx with
  | None -> ()
  | Some c -> Limits.charge_decode c (Coding.heap_bytes p)

let run_filter ?ctx ?tid_base ~(index : Builder.t) ~corpus ~label_id q
    (cover : Cover.t) =
  let chunk_tids (c : Cover.chunk) =
    match encodings_opt ~label_id c.Cover.fragment with
    | None -> [||]
    | Some (key, _) -> (
        match Builder.find_exn index key with
        | Some (Coding.Filter_p tids as p) ->
            charge_posting ctx p;
            tids
        | Some _ ->
            Si_error.raise_schema ~path:index.Builder.origin
              "filter index holds non-filter postings"
        | None -> [||])
  in
  let lists = Array.map chunk_tids cover.Cover.chunks in
  (* intersect cheapest-first: ascending posting length keeps every
     intermediate result no larger than the smallest input *)
  Array.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) lists;
  let step = step_of ctx in
  let candidates =
    if Array.length lists = 0 then [||]
    else begin
      let acc = ref lists.(0) in
      for i = 1 to Array.length lists - 1 do
        step ();
        if Array.length !acc > 0 then acc := intersect !acc lists.(i)
      done;
      !acc
    end
  in
  filter_results ?ctx ?tid_base ~index ~corpus q candidates

(* ---- interval / root-split -------------------------------------------- *)

let chunk_rel ?ctx ~(index : Builder.t) ~label_id (c : Cover.chunk) =
  match encodings_opt ~label_id c.Cover.fragment with
  | None -> Join.empty
  | Some (key, orders) -> (
      match Builder.find_exn index key with
      | None -> Join.empty
      | Some p -> (
          charge_posting ctx p;
          match p with
          | Coding.Root_p entries ->
          {
            Join.cols = [| c.Cover.root |];
            rows = Array.map (fun (tid, iv) -> { Join.tid; ivs = [| iv |] }) entries;
          }
          | Coding.Interval_p entries ->
          let cols = Array.of_list c.Cover.nodes in
          (* per alignment, the canonical position of each column's qnode *)
          let maps =
            List.map
              (fun order ->
                Array.map
                  (fun q ->
                    let rec find k =
                      if order.(k) = q then k else find (k + 1)
                    in
                    find 0)
                  cols)
              orders
          in
          let rows =
            Array.to_list entries
            |> List.concat_map (fun (tid, ivs) ->
                   List.map
                     (fun map ->
                       { Join.tid; ivs = Array.map (fun k -> ivs.(k)) map })
                     maps)
          in
          { Join.cols; rows = Array.of_list rows }
          | Coding.Filter_p _ ->
              Si_error.raise_schema ~path:index.Builder.origin
                "joinable evaluator over a filter index"))

(* Injectivity filtering, result projection and the root-split validation
   corner — the shared tail of the materialized and streaming join paths.
   [tid_base] as in {!filter_results}: validation reads the corpus with
   local tids, the emitted results are shifted into the global space. *)
let finish_joins ?ctx ?(tid_base = 0) ~(index : Builder.t) ~corpus q
    (ix : Ast.indexed) (cover : Cover.t) acc =
  let col_opt q =
    match Join.col_index acc q with c -> Some c | exception Not_found -> None
  in
  let pairs = cross_chunk_pairs ix cover in
  let checked =
    Join.filter ?ctx acc (fun r ->
        List.for_all
          (fun (x, y) ->
            match (col_opt x, col_opt y) with
            | Some cx, Some cy ->
                r.Join.ivs.(cx).Coding.pre <> r.Join.ivs.(cy).Coding.pre
            | _ -> true)
          pairs)
  in
  let c0 = Join.col_index checked 0 in
  let results =
    Array.to_list checked.Join.rows
    |> List.map (fun r -> (r.Join.tid, r.Join.ivs.(c0).Coding.pre))
    |> List.sort_uniq cmp_pair
  in
  (* root-split corner (DESIGN.md §6b): an injectivity constraint touching
     a non-exposed node cannot be a join predicate -> validate candidates *)
  let exposed v = cover.Cover.chunks.(cover.Cover.chunk_of.(v)).Cover.root = v in
  let needs_validation =
    index.Builder.scheme = Coding.Root_split
    && List.exists (fun (x, y) -> not (exposed x && exposed y)) pairs
  in
  let step = step_of ctx in
  let final =
    if needs_validation then
      List.filter
        (fun (tid, v) ->
          step ();
          Matcher.matches_at (tree_of ~index ~corpus tid) q v)
        results
    else results
  in
  let final =
    if tid_base = 0 then final
    else List.map (fun (tid, v) -> (tid + tid_base, v)) final
  in
  (match ctx with Some c -> List.iter (Limits.emit c) final | None -> ());
  final

(* Join order: the chunks form a tree (one cut edge per non-first chunk).
   Start from the smallest relation and repeatedly merge in the smallest
   relation adjacent to the joined set — the driving relation bounds every
   intermediate result, and connectivity guarantees exactly one cut edge
   links the new chunk to the joined set (the join predicate). *)
let run_joins ?ctx ?tid_base ~(index : Builder.t) ~corpus ~label_id q
    (ix : Ast.indexed) (cover : Cover.t) =
  let nchunks = Array.length cover.Cover.chunks in
  let rels = Array.map (chunk_rel ?ctx ~index ~label_id) cover.Cover.chunks in
  if Array.exists Join.is_empty rels then []
  else begin
    let edge c =
      (* chunk c's own cut edge, c >= 1: (parent qnode, axis) *)
      let r = cover.Cover.chunks.(c).Cover.root in
      (ix.Ast.parent.(r), ix.Ast.axis.(r))
    in
    let parent_chunk c = cover.Cover.chunk_of.(fst (edge c)) in
    let adj = Array.make nchunks [] in
    for c = 1 to nchunks - 1 do
      let p = parent_chunk c in
      adj.(p) <- c :: adj.(p);
      adj.(c) <- p :: adj.(c)
    done;
    let rows c = Array.length rels.(c).Join.rows in
    let included = Array.make nchunks false in
    let start = ref 0 in
    for c = 1 to nchunks - 1 do
      if rows c < rows !start then start := c
    done;
    included.(!start) <- true;
    let acc = ref rels.(!start) in
    for _ = 2 to nchunks do
      let best = ref (-1) in
      for c = 0 to nchunks - 1 do
        if
          (not included.(c))
          && List.exists (fun n -> included.(n)) adj.(c)
          && (!best < 0 || rows c < rows !best)
        then best := c
      done;
      let c = !best in
      (* the unique cut edge between c and the joined set *)
      let pq, axis, child_root =
        if c > 0 && included.(parent_chunk c) then
          let pq, axis = edge c in
          (pq, axis, cover.Cover.chunks.(c).Cover.root)
        else begin
          let k =
            List.find (fun k -> k > 0 && included.(k) && parent_chunk k = c) adj.(c)
          in
          let pq, axis = edge k in
          (pq, axis, cover.Cover.chunks.(k).Cover.root)
        end
      in
      let a = !acc and b = rels.(c) in
      let pred =
        match Join.col_index a pq with
        | ip ->
            let ic = Join.col_index b child_root in
            fun ra rb -> Join.structural axis ra.Join.ivs.(ip) rb.Join.ivs.(ic)
        | exception Not_found ->
            let ip = Join.col_index b pq and ic = Join.col_index a child_root in
            fun ra rb -> Join.structural axis rb.Join.ivs.(ip) ra.Join.ivs.(ic)
      in
      acc := Join.merge_join ?ctx a b ~pred;
      included.(c) <- true
    done;
    finish_joins ?ctx ?tid_base ~index ~corpus q ix cover !acc
  end

(* ---- streaming paths (block-skip + bounded cache) ---------------------- *)

(* The streaming evaluators produce exactly the rows of the materialized
   paths above, in the same order — the differential tests assert it —
   while touching postings only through {!Cursor}, so long postings decode
   block by block (through the caller's bounded cache) and intersections /
   joins skip the blocks their tids never land in. *)

let run_filter_stream ?ctx ?tid_base ~(index : Builder.t) ~corpus ~label_id
    ~cache q (cover : Cover.t) =
  let cursors =
    Array.map
      (fun (c : Cover.chunk) ->
        match encodings_opt ~label_id c.Cover.fragment with
        | None -> None
        | Some (key, _) -> Cursor.create ~cache ?ctx index key)
      cover.Cover.chunks
  in
  if Array.length cursors = 0 || Array.exists Option.is_none cursors then []
  else begin
    let cs = Array.map Option.get cursors in
    (* cheapest first: the shortest cursor drives the leapfrog *)
    Array.sort (fun a b -> Int.compare (Cursor.entries a) (Cursor.entries b)) cs;
    let n = Array.length cs in
    (* Per-cursor view of the current decoded block: tid array + position.
       Within a block the leapfrog runs on plain int arrays (same speed as
       the materialized intersection); the cursor is consulted only for
       cross-block moves, where its seek gallops over the skip table. *)
    let arrs = Array.make n [||] in
    let idxs = Array.make n 0 in
    let load k =
      let c = cs.(k) in
      (not (Cursor.exhausted c))
      && begin
           match Cursor.current c with
           | Coding.Filter_p a, ei ->
               arrs.(k) <- a;
               idxs.(k) <- ei;
               true
           | _ ->
               Si_error.raise_schema ~path:index.Builder.origin
                 "filter index holds non-filter postings"
         end
    in
    let live = ref true in
    for k = 0 to n - 1 do
      live := !live && load k
    done;
    let out = Ibuf.create 16 in
    if !live then begin
      (* first entry >= target in stream k, or -1 when the stream ends;
         gallop within the block (targets and positions are monotone),
         fall back to the cursor's skip-table seek across blocks *)
      let seek_stream k target =
        let a = arrs.(k) in
        let len = Array.length a in
        if len > 0 && target <= a.(len - 1) then begin
          let lo = idxs.(k) in
          let bound = ref 1 in
          while lo + !bound < len && a.(lo + !bound) < target do
            bound := !bound lsl 1
          done;
          let i =
            lower_bound a (lo + (!bound lsr 1)) (min len (lo + !bound + 1)) target
          in
          idxs.(k) <- i;
          a.(i)
        end
        else begin
          Cursor.seek cs.(k) target;
          if load k then arrs.(k).(idxs.(k)) else -1
        end
      in
      (* leapfrog: keep seeking every stream to the running max tid; when
         all agree the tid is in the intersection *)
      let step = step_of ctx in
      try
        let target = ref 0 in
        while true do
          step ();
          let m = ref !target in
          let all_eq = ref true in
          for k = 0 to n - 1 do
            let t = seek_stream k !target in
            if t < 0 then raise Exit;
            if t > !m then begin
              m := t;
              all_eq := false
            end
          done;
          if !all_eq then begin
            Ibuf.push out !target;
            incr target
          end
          else target := !m
        done
      with Exit -> ()
    end;
    filter_results ?ctx ?tid_base ~index ~corpus q (Ibuf.contents out)
  end

(* a chunk relation behind a cursor: exact row count (entries x
   alignments) for the join-order heuristic, rows expanded on demand *)
type vrel = {
  vcols : int array;
  vrows : int;
  vcur : Cursor.t;
  vexpand : Coding.posting -> int -> Join.row list;
}

let vrel_of_chunk ?ctx ~(index : Builder.t) ~label_id ~cache (c : Cover.chunk) =
  match encodings_opt ~label_id c.Cover.fragment with
  | None -> None
  | Some (key, orders) -> (
      match Cursor.create ~cache ?ctx index key with
      | None -> None
      | Some cur -> (
          let schema () =
            Si_error.raise_schema ~path:index.Builder.origin
              "posting scheme disagrees with the index header"
          in
          match index.Builder.scheme with
          | Coding.Root_split ->
              Some
                {
                  vcols = [| c.Cover.root |];
                  vrows = Cursor.entries cur;
                  vcur = cur;
                  vexpand =
                    (fun p i ->
                      match p with
                      | Coding.Root_p a ->
                          let tid, iv = a.(i) in
                          [ { Join.tid; ivs = [| iv |] } ]
                      | _ -> schema ());
                }
          | Coding.Interval ->
              let cols = Array.of_list c.Cover.nodes in
              let maps =
                List.map
                  (fun order ->
                    Array.map
                      (fun q ->
                        let rec find k =
                          if order.(k) = q then k else find (k + 1)
                        in
                        find 0)
                      cols)
                  orders
              in
              Some
                {
                  vcols = cols;
                  vrows = Cursor.entries cur * List.length maps;
                  vcur = cur;
                  vexpand =
                    (fun p i ->
                      match p with
                      | Coding.Interval_p a ->
                          let tid, ivs = a.(i) in
                          List.map
                            (fun map ->
                              {
                                Join.tid;
                                ivs = Array.map (fun k -> ivs.(k)) map;
                              })
                            maps
                      | _ -> schema ());
                }
          | Coding.Filter ->
              Si_error.raise_schema ~path:index.Builder.origin
                "joinable evaluator over a filter index"))

let materialize ?ctx (v : vrel) =
  let step = step_of ctx in
  let acc = ref [] in
  while not (Cursor.exhausted v.vcur) do
    step ();
    let p, i = Cursor.current v.vcur in
    acc := List.rev_append (v.vexpand p i) !acc;
    Cursor.advance v.vcur
  done;
  { Join.cols = v.vcols; rows = Array.of_list (List.rev !acc) }

(* all stream rows with exactly tid [t]; the cursor is already at the
   first entry >= t after the caller's seek *)
let probe ?ctx (v : vrel) t =
  let step = step_of ctx in
  let acc = ref [] in
  while Cursor.peek_tid v.vcur = t do
    step ();
    let p, i = Cursor.current v.vcur in
    acc := List.rev_append (v.vexpand p i) !acc;
    Cursor.advance v.vcur
  done;
  List.rev !acc

let col_in cols q =
  let rec find i =
    if i >= Array.length cols then raise Not_found
    else if cols.(i) = q then i
    else find (i + 1)
  in
  find 0

let run_joins_stream ?ctx ?tid_base ~(index : Builder.t) ~corpus ~label_id
    ~cache q (ix : Ast.indexed) (cover : Cover.t) =
  let nchunks = Array.length cover.Cover.chunks in
  let vrels =
    Array.map (vrel_of_chunk ?ctx ~index ~label_id ~cache) cover.Cover.chunks
  in
  if Array.exists (function None -> true | Some v -> v.vrows = 0) vrels then []
  else begin
    let vrels = Array.map Option.get vrels in
    let edge c =
      let r = cover.Cover.chunks.(c).Cover.root in
      (ix.Ast.parent.(r), ix.Ast.axis.(r))
    in
    let parent_chunk c = cover.Cover.chunk_of.(fst (edge c)) in
    let adj = Array.make nchunks [] in
    for c = 1 to nchunks - 1 do
      let p = parent_chunk c in
      adj.(p) <- c :: adj.(p);
      adj.(c) <- p :: adj.(c)
    done;
    let rows c = vrels.(c).vrows in
    let included = Array.make nchunks false in
    let start = ref 0 in
    for c = 1 to nchunks - 1 do
      if rows c < rows !start then start := c
    done;
    included.(!start) <- true;
    let acc = ref (materialize ?ctx vrels.(!start)) in
    for _ = 2 to nchunks do
      let best = ref (-1) in
      for c = 0 to nchunks - 1 do
        if
          (not included.(c))
          && List.exists (fun n -> included.(n)) adj.(c)
          && (!best < 0 || rows c < rows !best)
        then best := c
      done;
      let c = !best in
      let pq, axis, child_root =
        if c > 0 && included.(parent_chunk c) then
          let pq, axis = edge c in
          (pq, axis, cover.Cover.chunks.(c).Cover.root)
        else begin
          let k =
            List.find (fun k -> k > 0 && included.(k) && parent_chunk k = c) adj.(c)
          in
          let pq, axis = edge k in
          (pq, axis, cover.Cover.chunks.(k).Cover.root)
        end
      in
      let b = vrels.(c) in
      let pred =
        match Join.col_index !acc pq with
        | ip ->
            let ic = col_in b.vcols child_root in
            fun ra rb -> Join.structural axis ra.Join.ivs.(ip) rb.Join.ivs.(ic)
        | exception Not_found ->
            let ip = col_in b.vcols pq and ic = Join.col_index !acc child_root in
            fun ra rb -> Join.structural axis rb.Join.ivs.(ip) ra.Join.ivs.(ic)
      in
      acc :=
        Join.merge_join_stream ?ctx !acc ~cols:b.vcols
          ~next_tid:(fun t ->
            Cursor.seek b.vcur t;
            Cursor.peek b.vcur)
          ~probe:(probe ?ctx b) ~pred;
      included.(c) <- true
    done;
    finish_joins ?ctx ?tid_base ~index ~corpus q ix cover !acc
  end

let dispatch ?ctx ?tid_base ~index ~corpus ~label_id ~cache q =
  let ix = Ast.index q in
  let cover = cover_for index ix in
  match (index.Builder.scheme, cache) with
  | Coding.Filter, None ->
      run_filter ?ctx ?tid_base ~index ~corpus ~label_id q cover
  | Coding.Filter, Some cache ->
      run_filter_stream ?ctx ?tid_base ~index ~corpus ~label_id ~cache q cover
  | (Coding.Interval | Coding.Root_split), None ->
      run_joins ?ctx ?tid_base ~index ~corpus ~label_id q ix cover
  | (Coding.Interval | Coding.Root_split), Some cache ->
      run_joins_stream ?ctx ?tid_base ~index ~corpus ~label_id ~cache q ix cover

(* Degradation contract (DESIGN.md §10): an ungoverned run returns exact
   results; a governed run either completes ([truncated = false], results
   exact), trips max-results ([truncated = true], results are a correct
   prefix-by-discovery subset), or — with [partial] set — converts a
   deadline / budget trip into [truncated = true] with whatever verified
   results had been emitted by then.  Without [partial] those trips stay
   typed errors ({!Si_error.Timeout} / {!Si_error.Resource_exhausted}). *)
let run_outcome_exn ~index ~corpus ?(label_id = Fun.id) ?cache ?delta
    ?(limits = Limits.none) ?shared q =
  (* [Limits.start] itself can raise (a deadline of 0 trips before any
     work), so it must run inside the handled expression; the holder keeps
     the ctx reachable from the exception branches *)
  let holder = ref None in
  (* a shared gauge (one leg of a sharded fan-out, DESIGN.md §14)
     accounts bytes/steps against the fan-out-wide atomic pools and
     measures its deadline from the fan-out's start instant; its budget
     supersedes [limits] so the partial flag below reads the right one *)
  let limits =
    match shared with Some sh -> Limits.shared_limits sh | None -> limits
  in
  match
    let ctx =
      match shared with
      | Some sh -> Limits.start_shared sh
      | None -> Limits.start limits
    in
    holder := ctx;
    let main = dispatch ?ctx ~index ~corpus ~label_id ~cache q in
    match delta with
    | None -> main
    | Some (dindex, dcorpus, base) ->
        (* The WAL delta: evaluated under the same gauge so every budget
           spans both halves, always on the materialized path (the
           streaming cache's (key, block) entries must not alias across
           two indexes).  Delta tids shift by [base] = the main tree
           count, so [main @ shifted] is sorted and duplicate-free by
           disjointness of the tid ranges — the union needs no re-sort
           and the truncated-⊂-exact contract carries over unchanged. *)
        main @ dispatch ?ctx ~tid_base:base ~index:dindex ~corpus:dcorpus
                 ~label_id ~cache:None q
  with
  | matches -> { Limits.matches; truncated = false; degraded = false }
  | exception Limits.Truncated ->
      (* only ctx code raises Truncated, so the holder is necessarily full *)
      {
        Limits.matches = Limits.collected (Option.get !holder);
        truncated = true;
        degraded = false;
      }
  | exception Si_error.Error (Si_error.Timeout _ | Si_error.Resource_exhausted _)
    when limits.Limits.partial ->
      let matches =
        match !holder with Some c -> Limits.collected c | None -> []
      in
      { Limits.matches; truncated = true; degraded = false }

let run_outcome ~index ~corpus ?label_id ?cache ?delta ?limits ?shared q =
  Si_error.guard (fun () ->
      run_outcome_exn ~index ~corpus ?label_id ?cache ?delta ?limits ?shared q)

let run_exn ~index ~corpus ?label_id ?cache ?delta ?limits q =
  (run_outcome_exn ~index ~corpus ?label_id ?cache ?delta ?limits q)
    .Limits.matches

let run ~index ~corpus ?label_id ?cache ?delta ?limits q =
  Si_error.guard (fun () ->
      run_exn ~index ~corpus ?label_id ?cache ?delta ?limits q)
