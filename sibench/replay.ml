(* The traced run's in-process replay: a workload's queries, on the
   workload's own prefix, through each layer's public functions in turn,
   so the per-layer figures come from the same index files and query mix
   as the end-to-end ones.  Spans are named after the layer called. *)

open Si_core

let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Si_error.to_string e)

let members = function
  | Si.Single si -> [| si |]
  | Si.Sharded sh -> Si.shard_handles sh

let query_any h q =
  match h with
  | Si.Single si -> ok_exn "query" (Si.query si q)
  | Si.Sharded sh -> ok_exn "query" (Si.query_sharded sh q)

(* process-global label -> the stored id space of the index at [prefix]
   (one name per line of PREFIX.labels, id = line number) — what the
   handle's own key lookups use *)
let stored_ids prefix =
  let tbl = Hashtbl.create 4096 in
  let ic = open_in_bin (prefix ^ ".labels") in
  let rec go i =
    match input_line ic with
    | l -> if not (Hashtbl.mem tbl l) then Hashtbl.add tbl l i; go (i + 1)
    | exception End_of_file -> close_in ic
  in
  go 0;
  fun l ->
    match Hashtbl.find_opt tbl (Si_treebank.Label.name l) with
    | Some id -> id
    | None -> raise Not_found

let distinct_tids matches =
  List.sort_uniq compare (List.map fst matches)

(* tids of one posting, ascending, deduplicated *)
let posting_tids p =
  let n = Coding.entries p in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let t = Coding.tid_at p i in
    match !acc with x :: _ when x = t -> () | _ -> acc := t :: !acc
  done;
  !acc

let rec inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys -> if x = y then x :: inter xs ys else if x < y then inter xs b else inter a ys

type per_query = {
  text : string;
  first_ms : float;  (** first query on a freshly opened handle *)
  warm_ms : float;
  decode_ms : float;  (** cold decode cache minus warm *)
}

type result = {
  metrics : (string * float * string * int) list;  (** name, value, unit, samples *)
  queries : per_query list;
  open_ms : float;  (** median open *)
}

(* [files_of prefix] — PREFIX.ext siblings (not the .shardK members) *)
let files_of prefix =
  let dir = Filename.dirname prefix and base = Filename.basename prefix in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > String.length base + 1
         && String.sub f 0 (String.length base + 1) = base ^ "."
         && not (String.contains (String.sub f (String.length base + 1)
                                    (String.length f - String.length base - 1)) '.'))
  |> List.map (Filename.concat dir)

let copy src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* WAL path: K single-tree inserts into a scratch copy of one member
   index (time against pending count, least-squares slope), then one
   checkpoint. *)
let wal_replay ~member_prefix ~scratch ~(trees : Si_treebank.Tree.t array) =
  List.iter
    (fun f ->
      let ext = String.sub f (String.length member_prefix) (String.length f - String.length member_prefix) in
      copy f (scratch ^ ext))
    (files_of member_prefix);
  let root = Trace.enter ~req:0 "replay.wal" in
  let parent = root.Trace.oid in
  let si = ok_exn "open copy" (Si.open_ scratch) in
  let k = Array.length trees in
  let xs = Array.make k 0. and ys = Array.make k 0. in
  Array.iteri
    (fun i t ->
      xs.(i) <- float_of_int (Si.pending si);
      let _, dt = Trace.time ~parent ~req:i "wal.insert" (fun () -> ok_exn "insert" (Si.insert si [ t ])) in
      ys.(i) <- us dt)
    trees;
  let _, ck = Trace.time ~parent ~req:k "wal.checkpoint" (fun () -> ok_exn "checkpoint" (Si.checkpoint si)) in
  Si.close_wal si;
  Trace.leave root;
  let mx = Array.fold_left ( +. ) 0. xs /. float_of_int k
  and my = Array.fold_left ( +. ) 0. ys /. float_of_int k in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i x ->
      num := !num +. ((x -. mx) *. (ys.(i) -. my));
      den := !den +. ((x -. mx) *. (x -. mx)))
    xs;
  ((if !den = 0. then 0. else !num /. !den), ms ck)

let run ~prefix ~member_prefix ~scratch ~(queries : string array)
    ~(insert_trees : Si_treebank.Tree.t array) =
  let open_samples =
    List.init 5 (fun i ->
        let _, dt = Trace.time ~req:i "open.open_any" (fun () -> ok_exn "open" (Si.open_any prefix)) in
        ms dt)
  in
  let label_id = stored_ids member_prefix in
  let parse = ref [] and cover = ref [] and chunks = ref [] and joins = ref [] in
  let entries = ref [] and blocks = ref [] and cands = ref [] and matched = ref 0 in
  let warm = ref [] and decode = ref [] and first = ref [] and get = ref [] in
  let legs = ref [] and merge = ref [] and per_query = ref [] in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let reps = 20 in
  Array.iteri
    (fun req text ->
      let root = Trace.enter ~req "replay.query" in
      let parent = root.Trace.oid in
      let ast = ref (Si_query.Ast.make "x" []) in
      let _, dt =
        Trace.time ~parent ~req "query.Parser.parse" (fun () ->
            for _ = 1 to reps do
              ast := Si_query.Parser.parse_exn text
            done)
      in
      parse := (us dt /. float_of_int reps) :: !parse;
      let ix = Si_query.Ast.index !ast in
      (* a fresh handle: its first query pays first-touch CRC
         verification and cold decode, the CLI's cost *)
      let h, _ = Trace.time ~parent ~req "open.open_any" (fun () -> ok_exn "open" (Si.open_any prefix)) in
      let ms_ = members h in
      let answer, t_first = Trace.time ~parent ~req "eval.first_query" (fun () -> query_any h text) in
      Array.iter
        (fun si ->
          let s = Si.cache_stats si in
          hits := !hits + s.Cache.hits;
          misses := !misses + s.Cache.misses;
          evictions := !evictions + s.Cache.evictions)
        ms_;
      (* answers may hold WAL-delta trees, which no main posting covers *)
      let main = Array.fold_left (fun acc si -> acc + (Si.stats si).Builder.trees) 0 ms_ in
      matched := !matched + List.length (List.filter (fun t -> t < main) (distinct_tids answer));
      let c = ref (Cover.optimal_cover ix ~mss:3) in
      let _, dt =
        Trace.time ~parent ~req "plan.Eval.cover_for" (fun () ->
            for _ = 1 to reps do
              c := Eval.cover_for (Si.index ms_.(0)) ix
            done)
      in
      cover := (us dt /. float_of_int reps) :: !cover;
      chunks := float_of_int (Array.length !c.Cover.chunks) :: !chunks;
      joins := float_of_int (Cover.joins !c) :: !joins;
      let keys =
        Array.to_list !c.Cover.chunks
        |> List.filter_map (fun (ch : Cover.chunk) ->
               match Si_subtree.Canonical.encode ~label_id ch.Cover.fragment with
               | key, _ -> Some key
               | exception Not_found -> None)
      in
      let e = ref 0 and b = ref 0 and cand = ref 0 in
      Array.iter
        (fun si ->
          let index = Si.index si in
          let tid_sets =
            List.map
              (fun key ->
                ignore (Trace.time ~parent ~req "postings.Builder.find_blocks" (fun () ->
                    match Builder.find_blocks index key with
                    | Some (_, bl) -> b := !b + Array.length bl
                    | None -> ()));
                e := !e + Option.value ~default:0 (Builder.posting_entries index key);
                match Builder.find_exn index key with
                | Some p -> posting_tids p
                | None -> [])
              keys
          in
          let all = List.length keys = Array.length !c.Cover.chunks in
          match tid_sets with
          | s :: rest when all -> cand := !cand + List.length (List.fold_left inter s rest)
          | _ -> ())
        ms_;
      entries := float_of_int !e :: !entries;
      blocks := float_of_int !b :: !blocks;
      cands := float_of_int !cand :: !cands;
      let t_warm =
        List.init 3 (fun _ -> snd (Trace.time ~parent ~req "eval.warm" (fun () -> query_any h text)))
        |> List.fold_left min max_int
      in
      (* cold = fresh decode cache on the already-verified handle(s) *)
      let t_cold =
        Array.fold_left
          (fun acc si ->
            let cache = Cursor.create_cache () in
            acc + snd (Trace.time ~parent ~req "postings.query_outcome_cached.cold" (fun () ->
                      ok_exn "query" (Si.query_outcome_cached ~cache si text))))
          0 ms_
      in
      let leg_warm =
        Array.map
          (fun si -> snd (Trace.time ~parent ~req "shard.leg" (fun () -> ok_exn "query" (Si.query si text))))
          ms_
      in
      let slowest = Array.fold_left max 0 leg_warm in
      legs := ms slowest :: !legs;
      merge := ms (max 0 (t_warm - slowest)) :: !merge;
      warm := us t_warm :: !warm;
      let t_decode = max 0 (t_cold - Array.fold_left ( + ) 0 leg_warm) in
      decode := us t_decode :: !decode;
      first := ms (t_first - t_warm) :: !first;
      per_query :=
        { text; first_ms = ms t_first; warm_ms = ms t_warm; decode_ms = ms t_decode } :: !per_query;
      Trace.leave root)
    queries;
  (* store: materialize 100 evenly spaced trees on a fresh handle (its
     first get pays the body CRC, so it is not sampled) *)
  let corpus = Si.corpus (members (ok_exn "open" (Si.open_any prefix))).(0) in
  let n = Corpus.length corpus in
  ignore (Corpus.get corpus 0);
  for i = 1 to 100 do
    let tid = i * (n - 1) / 100 in
    get := us (snd (Trace.time ~req:tid "store.Corpus.get" (fun () -> Corpus.get corpus tid))) :: !get
  done;
  let slope, ck = wal_replay ~member_prefix ~scratch ~trees:insert_trees in
  let nq = Array.length queries in
  let p50 l = Stat.median l in
  let total_cands = List.fold_left ( +. ) 0. !cands in
  let lookups = !hits + !misses in
  let m name v unit n = (name, v, unit, n) in
  {
    metrics =
      [
        m "query.parse_us.p50" (p50 !parse) "us" nq;
        m "plan.cover_us.p50" (p50 !cover) "us" nq;
        m "plan.chunks.mean" (Stat.mean !chunks) "count" nq;
        m "plan.joins.mean" (Stat.mean !joins) "count" nq;
        m "eval.warm_us.p50" (p50 !warm) "us" nq;
        m "postings.entries_per_query" (Stat.mean !entries) "count" nq;
        m "postings.blocks_per_query" (Stat.mean !blocks) "count" nq;
        m "postings.decode_us.p50" (p50 !decode) "us" nq;
        m "store.get_us.p50" (p50 !get) "us" (List.length !get);
        m "store.candidates_per_query" (Stat.mean !cands) "count" nq;
        m "store.precision"
          (if total_cands = 0. then 1. else float_of_int !matched /. total_cands)
          "ratio" nq;
        m "open.ms.p50" (p50 open_samples) "ms" (List.length open_samples);
        m "verify.first_touch_ms.p50" (p50 !first) "ms" nq;
        m "shard.leg_ms_max.p50" (p50 !legs) "ms" nq;
        m "shard.merge_ms.p50" (p50 !merge) "ms" nq;
        m "wal.insert_us_per_pending" slope "us" (Array.length insert_trees);
        m "wal.checkpoint_ms" ck "ms" 1;
        m "replay.cache_hit_ratio"
          (if lookups = 0 then 1. else float_of_int !hits /. float_of_int lookups)
          "ratio" nq;
        m "replay.cache_evictions_per_query" (float_of_int !evictions /. float_of_int (max 1 nq))
          "count" nq;
      ];
    queries = List.rev !per_query;
    open_ms = p50 open_samples;
  }
