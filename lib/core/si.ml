open Si_treebank

(* The id space the index keys are encoded in: the [.labels] file order
   (= [Label.all ()] of the building process), extended in insertion order
   by labels the WAL brought in.  Immutable after publication — {!insert}
   extends by copy — so readers on other domains never see a half-built
   table. *)
type space = { names : string array; ids : (string, int) Hashtbl.t }

let space_of_names names =
  let ids = Hashtbl.create (max 16 (Array.length names)) in
  Array.iteri (fun id name -> Hashtbl.replace ids name id) names;
  { names; ids }

(* One immutable snapshot of everything the WAL has inserted since the
   last checkpoint.  Queries read it with a single [Atomic.get]: under the
   OCaml 5 memory model they see the old or the new snapshot, never a torn
   mix of docs and index.  Local tids [0 .. |d_docs|-1] map to global tids
   by adding the main index's tree count. *)
type delta = {
  d_docs : Annotated.t array;
  d_index : Builder.t;  (* heap index over [d_docs], grown by {!Builder.append} *)
  d_corpus : Corpus.t;
  d_space : space;
}

let empty_delta ~scheme ~mss space =
  {
    d_docs = [||];
    d_index = Builder.build ~scheme ~mss [||];
    d_corpus = Corpus.of_array [||];
    d_space = space;
  }

(* Self-healing integrity state (DESIGN.md §15).  One record per handle,
   shared by functional copies ([{ t with ... }]): the quarantine flag is
   read lock-free on every query, everything else mutates under [i_lock].

   Quarantine is whole-index: the SIDX4 postings region carries one CRC,
   so once any posting bytes are untrusted the only per-key information
   is which keys {e fail to decode} — not which decode to silently wrong
   answers.  Falling back to the corpus store for every key is the only
   answer that stays exact, and it is what makes the fallback ≡ oracle
   differential hold.  [bad_keys]/[bad_trees] are the scrub's localized
   damage — counters and repair-threshold inputs, not trust boundaries. *)
type integrity = {
  quarantined : bool Atomic.t;
      (* the index's own bytes are untrusted: answer from the corpus *)
  repairing : bool Atomic.t;
  i_lock : Mutex.t;
  mutable bad_keys : string list;
  mutable bad_trees : int list;
  mutable fallbacks : int;  (* queries answered by the fallback path *)
  mutable scrub_passes : int;
  mutable scrub_bytes : int;
  mutable repairs : int;
  mutable repair_failures : int;
  i_cursor : Scrub.cursor;
}

let fresh_integrity () =
  {
    quarantined = Atomic.make false;
    repairing = Atomic.make false;
    i_lock = Mutex.create ();
    bad_keys = [];
    bad_trees = [];
    fallbacks = 0;
    scrub_passes = 0;
    scrub_bytes = 0;
    repairs = 0;
    repair_failures = 0;
    i_cursor = Scrub.cursor ();
  }

type t = {
  index : Builder.t;
  corpus : Corpus.t;
      (* a materialized array for SIDX1-3 / fresh builds, the mapped
         [.trees] store for SIDX4 opens *)
  label_id : Label.t -> int;
      (* process-global label id -> the id space the index keys were
         encoded in; raises Not_found for labels the index never saw.
         Reads the current delta snapshot's space, so keys for inserted
         labels resolve too. *)
  cache : Cursor.cache;
      (* the handle's decoded-block cache, used by single-domain [query];
         [query_batch] domains each get their own *)
  prefix : string option;
      (* the on-disk prefix this handle came from; [None] for a pure
         in-memory build — such a handle cannot [insert] or [checkpoint] *)
  delta : delta Atomic.t;
  wal : Wal.t option ref;  (* append handle, opened by the first [insert] *)
  ilock : Mutex.t;  (* serializes insert / checkpoint / WAL access *)
  integ : integrity;  (* quarantine / scrub / repair state, shared by copies *)
}

type format = [ `Sidx3 | `Sidx4 ]

let index t = t.index
let cache_stats t = Cache.stats t.cache
let scheme t = t.index.Builder.scheme
let mss t = t.index.Builder.mss
let stats t = t.index.Builder.stats
let corpus t = t.corpus
let format t = if Builder.is_mapped t.index then `Sidx4 else `Sidx3

let sentence t tid =
  let n = Corpus.length t.corpus in
  if tid < n then (Corpus.get t.corpus tid).Annotated.tree
  else (Atomic.get t.delta).d_docs.(tid - n).Annotated.tree

let pending t = Array.length (Atomic.get t.delta).d_docs

let wal_bytes t =
  Mutex.protect t.ilock (fun () ->
      match !(t.wal) with Some w -> Wal.bytes w | None -> 0)

let write_text path lines =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_binary path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Crash protocol for the four-file set.  Every byte is staged before any
   final name changes: the [.idx] goes to [prefix.idx.new] (itself written
   atomically by {!Builder.save}), the siblings to [*.tmp], and only then
   does the rename sequence publish them.  Consequences the recovery
   harness asserts:

   - a crash anywhere up to and including the "si.save.siblings" failpoint
     leaves every published file untouched — the old index loads and
     answers exactly as before (stale [.new]/[.tmp] staging litter is
     ignored by [open_] and swept by the next successful save);
   - a crash inside the rename sequence can leave a mixed old/new set, but
     never a silently wrong one: the [.meta] records the CRC-32 of the
     exact [.idx] bytes it was written against ([idx_crc=...]), and
     {!open_} refuses a prefix whose [.idx] does not match it
     ([Schema_mismatch]) instead of answering from mismatched files.
     Re-running the save to completion repairs the prefix.

   [`Sidx4] saves add a fifth sibling, [prefix.trees] — the zero-copy
   corpus store the mapped open resolves intervals against — staged and
   renamed under the same protocol (before the [.meta]). *)
let save ?(format = `Sidx3) ?labels t prefix trees =
  (* default: the building process's whole intern table; a checkpoint
     passes the stored-extended space instead, so a fresh opener maps the
     keys exactly as they were encoded *)
  let label_lines =
    match labels with Some l -> l | None -> Array.to_list (Label.all ())
  in
  let staged_idx = prefix ^ ".idx.new" in
  (match
     match format with
     | `Sidx3 -> Builder.save t.index staged_idx
     | `Sidx4 -> Builder.save_v4 t.index staged_idx
   with
  | Ok () -> ()
  | Error e -> raise (Si_error.Error e));
  let idx_crc = Crc32.string (read_binary staged_idx) in
  let tmp ext = (prefix ^ ext, prefix ^ ext ^ ".tmp") in
  let dat, dat_tmp = tmp ".dat" in
  let labels, labels_tmp = tmp ".labels" in
  let meta, meta_tmp = tmp ".meta" in
  let trees_file, trees_tmp = tmp ".trees" in
  Penn.write_file dat_tmp trees;
  (match format with
  | `Sidx4 ->
      (* the store carries label ids in the published [.labels] order,
         which is NOT this process's intern order when the handle was
         opened lazily (SIDX4) and other parses interned first — e.g. a
         checkpoint whose WAL replay interned the delta's labels before
         any mapped-corpus access *)
      let stored_id = Hashtbl.create (List.length label_lines) in
      List.iteri
        (fun i name ->
          if not (Hashtbl.mem stored_id name) then Hashtbl.add stored_id name i)
        label_lines;
      let relabel live =
        match Hashtbl.find_opt stored_id (Label.name live) with
        | Some sid -> sid
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Si.save: label %S of the corpus is missing from the \
                  published label table"
                 (Label.name live))
      in
      Treestore.save trees_tmp ~relabel (Corpus.to_array t.corpus)
  | `Sidx3 -> ());
  write_text labels_tmp label_lines;
  let s = t.index.Builder.stats in
  write_text meta_tmp
    [
      "scheme=" ^ Coding.scheme_to_string t.index.Builder.scheme;
      "mss=" ^ string_of_int t.index.Builder.mss;
      "trees=" ^ string_of_int s.Builder.trees;
      "nodes=" ^ string_of_int s.Builder.nodes;
      "keys=" ^ string_of_int s.Builder.keys;
      "postings=" ^ string_of_int s.Builder.postings;
      "idx_crc=" ^ string_of_int idx_crc;
    ];
  Failpoint.hit "si.save.siblings";
  Sys.rename staged_idx (prefix ^ ".idx");
  Sys.rename dat_tmp dat;
  (match format with `Sidx4 -> Sys.rename trees_tmp trees_file | `Sidx3 -> ());
  Sys.rename labels_tmp labels;
  (* the .meta lands last: it names the .idx bytes it belongs to *)
  Sys.rename meta_tmp meta

(* [label_id] through the handle's current delta space: identical to the
   historical stored-table lookup while the delta is empty, and resolves
   labels the WAL brought in afterwards.  Ids are append-only across
   snapshots, so a racing publish can only turn Not_found into a valid id,
   never change one. *)
let make_handle ~index ~corpus ~cache ~prefix space =
  let delta =
    Atomic.make
      (empty_delta ~scheme:index.Builder.scheme ~mss:index.Builder.mss space)
  in
  let label_id l =
    match Hashtbl.find_opt (Atomic.get delta).d_space.ids (Label.name l) with
    | Some id -> id
    | None -> raise Not_found
  in
  {
    index;
    corpus;
    label_id;
    cache;
    prefix;
    delta;
    wal = ref None;
    ilock = Mutex.create ();
    integ = fresh_integrity ();
  }

let build ?(domains = 1) ?cache_budget ?format ~scheme ~mss ~trees ?prefix () =
  let docs = Array.of_list (List.map Annotated.of_tree trees) in
  let index = Builder.build ~domains ~scheme ~mss docs in
  let cache = Cursor.create_cache ?budget:cache_budget () in
  (* the build encodes keys in process-global ids, so the space snapshot
     (= [Label.all ()], what [save] writes as [.labels]) is the identity
     on every label the corpus holds *)
  let t =
    make_handle ~index ~corpus:(Corpus.of_array docs) ~cache ~prefix
      (space_of_names (Label.all ()))
  in
  (try Option.iter (fun p -> save ?format t p trees) prefix
   with Sys_error what ->
     raise (Si_error.Error (Si_error.Io { path = Option.get prefix; what })));
  t

(* The .meta is advisory for stats but load-bearing for consistency: an
   [.idx] paired with the wrong sibling files (regenerated corpus, copied
   prefix, a crash mid-publish) must not answer queries against the wrong
   trees. *)
let check_meta prefix ~(index : Builder.t) ~ntrees =
  let path = prefix ^ ".meta" in
  let mismatch what = Si_error.raise_schema ~path what in
  List.iter
    (fun line ->
      match String.index_opt line '=' with
      | None -> ()
      | Some i -> (
          let k = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          match k with
          | "scheme" ->
              if v <> Coding.scheme_to_string index.Builder.scheme then
                mismatch
                  (Printf.sprintf ".meta says scheme=%s but the .idx is %s" v
                     (Coding.scheme_to_string index.Builder.scheme))
          | "mss" ->
              if v <> string_of_int index.Builder.mss then
                mismatch
                  (Printf.sprintf ".meta says mss=%s but the .idx has mss=%d" v
                     index.Builder.mss)
          | "trees" ->
              if v <> string_of_int ntrees then
                mismatch
                  (Printf.sprintf ".meta says trees=%s but the .dat holds %d" v
                     ntrees)
          | "idx_crc" -> (
              (* whole-file cross-check: catches a crash that published a
                 new .idx but died before the matching siblings (or the
                 reverse).  Absent in pre-crc .meta files — skipped. *)
              match (int_of_string_opt v, index.Builder.file_crc) with
              | Some want, Some got when want <> got ->
                  mismatch
                    (Printf.sprintf
                       ".meta says idx_crc=%d but the .idx hashes to %d — \
                        mixed file set (crash mid-save?); rebuild the prefix"
                       want got)
              | None, _ -> mismatch ".meta idx_crc is not a number"
              | _ -> ())
          | _ -> ()))
    (read_lines path)

(* nodes= / postings= counts out of the .meta — the mapped open has no
   other source for them (it never walks the corpus or the postings) *)
let meta_counts prefix =
  let nodes = ref 0 and postings = ref 0 in
  List.iter
    (fun line ->
      match String.index_opt line '=' with
      | None -> ()
      | Some i -> (
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          match String.sub line 0 i with
          | "nodes" -> nodes := Option.value ~default:0 (int_of_string_opt v)
          | "postings" -> postings := Option.value ~default:0 (int_of_string_opt v)
          | _ -> ()))
    (read_lines (prefix ^ ".meta"));
  (!nodes, !postings)

(* Extend a space by copy with every label of [docs] not already in it,
   in tree order — deterministic, so every process replaying the same WAL
   derives the same extended table (and a checkpoint's published [.labels]
   is reproducible). *)
let extend_space space docs =
  let fresh = ref [] and seen = Hashtbl.create 16 in
  Array.iter
    (fun doc ->
      Tree.fold
        (fun () node ->
          let name = Label.name node.Tree.label in
          if not (Hashtbl.mem space.ids name || Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            fresh := name :: !fresh
          end)
        () doc.Annotated.tree)
    docs;
  match !fresh with
  | [] -> space
  | l -> space_of_names (Array.append space.names (Array.of_list (List.rev l)))

(* A fresh snapshot with [new_docs] appended: the space grows first, then
   only [new_docs] are indexed *in the extended space* and appended to
   the delta index ({!Builder.append}) — its keys byte-unify with the main
   index's stored-space keys, so query-time union and checkpoint merge
   need no translation.  The previous snapshot is left intact for readers
   still holding it. *)
let delta_with d new_docs =
  if Array.length new_docs = 0 then d
  else begin
    let d_docs = Array.append d.d_docs new_docs in
    let d_space = extend_space d.d_space new_docs in
    let label_id l =
      match Hashtbl.find_opt d_space.ids (Label.name l) with
      | Some id -> id
      | None -> raise Not_found
    in
    {
      d_docs;
      d_index = Builder.append ~label_id d.d_index new_docs;
      d_corpus = Corpus.of_array d_docs;
      d_space;
    }
  end

(* Replay the prefix's WAL (if any) into [t]'s delta.  Records carry
   global tids: anything below the main tree count was checkpointed
   already (publish landed, truncation didn't) and is skipped; the rest
   must continue the numbering without a gap.  Replaying twice is
   therefore byte-identical to replaying once. *)
let replay_wal t prefix =
  match
    Wal.replay ~scheme:t.index.Builder.scheme ~mss:t.index.Builder.mss prefix
  with
  | [] -> ()
  | records ->
      let expected = ref (Corpus.length t.corpus) in
      let fresh =
        List.filter_map
          (fun (tid, tree) ->
            if tid < !expected then None
            else if tid = !expected then begin
              incr expected;
              Some (Annotated.of_tree tree)
            end
            else
              Si_error.raise_corrupt ~path:(Wal.path prefix) ~offset:0
                (Printf.sprintf
                   "WAL record tid %d leaves a gap after tree %d" tid !expected))
          records
      in
      Atomic.set t.delta (delta_with (Atomic.get t.delta) (Array.of_list fresh))

let open_ ?cache_budget prefix =
  Si_error.guard @@ fun () ->
  let index =
    match Builder.load (prefix ^ ".idx") with
    | Ok index -> index
    | Error e -> raise (Si_error.Error e)
  in
  let wrap_file path f =
    try f () with
    | Sys_error what -> Si_error.raise_io ~path what
    | Failure what ->
        (* Penn parse errors: the corpus file is damaged, not the query *)
        Si_error.raise_corrupt ~path ~offset:0 what
  in
  let stored =
    wrap_file (prefix ^ ".labels") (fun () ->
        Array.of_list (read_lines (prefix ^ ".labels")))
  in
  let space = space_of_names stored in
  let cache () = Cursor.create_cache ?budget:cache_budget () in
  let finish ~index ~corpus =
    let t =
      make_handle ~index ~corpus ~cache:(cache ()) ~prefix:(Some prefix) space
    in
    replay_wal t prefix;
    t
  in
  if Builder.is_mapped index then begin
    (* SIDX4: O(1) open.  No .dat parse, no table build — map the .trees
       corpus store, attach the interval resolver, and restore the stats
       the mapped .idx does not carry from the .meta. *)
    let store_path = prefix ^ ".trees" in
    let relabel sid =
      if sid < 0 || sid >= Array.length stored then
        Si_error.raise_corrupt ~path:store_path ~offset:0
          (Printf.sprintf "stored label id %d outside the %d-entry label table"
             sid (Array.length stored))
      else Label.intern stored.(sid)
    in
    let store = wrap_file store_path (fun () -> Treestore.open_ ~relabel store_path) in
    let ntrees = Treestore.length store in
    wrap_file (prefix ^ ".meta") (fun () -> check_meta prefix ~index ~ntrees);
    let nodes, postings =
      wrap_file (prefix ^ ".meta") (fun () -> meta_counts prefix)
    in
    Builder.set_resolve index (fun tid pre ->
        let d = Treestore.get store tid in
        if pre < 0 || pre >= Annotated.size d then
          Si_error.raise_corrupt ~path:(prefix ^ ".idx") ~offset:0
            (Printf.sprintf "posting pre %d outside tree %d of %d nodes" pre
               tid (Annotated.size d));
        {
          Coding.pre;
          post = d.Annotated.post.(pre);
          level = d.Annotated.level.(pre);
        });
    let index =
      {
        index with
        Builder.stats =
          { index.Builder.stats with Builder.trees = ntrees; nodes; postings };
      }
    in
    finish ~index ~corpus:(Corpus.of_store store)
  end
  else begin
    let trees =
      wrap_file (prefix ^ ".dat") (fun () -> Penn.read_file (prefix ^ ".dat"))
    in
    let docs = Array.of_list (List.map Annotated.of_tree trees) in
    wrap_file (prefix ^ ".meta") (fun () ->
        check_meta prefix ~index ~ntrees:(Array.length docs));
    let index =
      (* restore the corpus stats the .idx does not carry *)
      let nodes = Array.fold_left (fun acc d -> acc + Annotated.size d) 0 docs in
      {
        index with
        Builder.stats =
          { index.Builder.stats with Builder.trees = Array.length docs; nodes };
      }
    in
    finish ~index ~corpus:(Corpus.of_array docs)
  end

(* ---- incremental inserts (DESIGN.md §13) -------------------------------- *)

let require_prefix t op =
  match t.prefix with
  | Some p -> p
  | None -> invalid_arg ("Si." ^ op ^ ": handle has no on-disk prefix")

let wal_handle t prefix =
  match !(t.wal) with
  | Some w -> w
  | None ->
      let w =
        Wal.open_append ~scheme:t.index.Builder.scheme ~mss:t.index.Builder.mss
          prefix
      in
      t.wal := Some w;
      w

(* Durability before visibility: the call's trees are framed, written and
   fsync'd into the WAL as one group commit, then one [Atomic.set]
   publishes the extended snapshot to readers.
   A crash between the two replays the records at the next open — the same
   state, reached the other way.  Tids are global ([main trees + delta
   position]), which is what makes replay and the checkpoint/truncate
   crash window idempotent. *)
let insert t trees =
  Si_error.guard @@ fun () ->
  let prefix = require_prefix t "insert" in
  Mutex.protect t.ilock @@ fun () ->
  let d = Atomic.get t.delta in
  let base = Corpus.length t.corpus + Array.length d.d_docs in
  (if trees <> [] then begin
     Wal.append (wal_handle t prefix) ~tid:base trees;
     Atomic.set t.delta
       (delta_with d (Array.of_list (List.map Annotated.of_tree trees)))
   end);
  base + List.length trees

(* Checkpoint: fold the delta into a fresh main index, publish it through
   the staged-rename protocol ({!save} — the same crash-consistency the
   recovery harness already covers), then truncate the WAL.  Every crash
   window is safe: before the publish renames the old set answers with a
   full WAL to replay; mid-rename the [.meta] idx_crc cross-check refuses
   the mixed set; published-but-untruncated replays records the new index
   already covers (skipped by tid).  The in-memory handle keeps answering
   from old-main + delta — the same match set; long-lived processes swap
   to the new generation ({!open_}) when convenient. *)
let checkpoint t =
  Si_error.guard @@ fun () ->
  let prefix = require_prefix t "checkpoint" in
  Mutex.protect t.ilock @@ fun () ->
  let d = Atomic.get t.delta in
  match Array.length d.d_docs with
  | 0 ->
      (* nothing pending — but a crash between a checkpoint's publish and
         its truncate leaves a WAL whose every record the main index
         already covers (replay skipped them all).  Converge by dropping
         it now instead of re-scanning it on every future open. *)
      (if Sys.file_exists (Wal.path prefix)
       && (try (Unix.stat (Wal.path prefix)).Unix.st_size > 8
           with Unix.Unix_error _ -> false)
       then
         let w = wal_handle t prefix in
         Wal.truncate w);
      0
  | pending ->
      let base = Corpus.length t.corpus in
      let merged = Builder.merge_append t.index d.d_index ~tid_base:base in
      let main_docs = Corpus.to_array t.corpus in
      let all_docs = Array.append main_docs d.d_docs in
      let all_trees =
        Array.to_list (Array.map (fun doc -> doc.Annotated.tree) all_docs)
      in
      let staged =
        { t with index = merged; corpus = Corpus.of_array all_docs }
      in
      (try
         save ~format:(format t)
           ~labels:(Array.to_list d.d_space.names)
           staged prefix all_trees
       with Sys_error what ->
         raise (Si_error.Error (Si_error.Io { path = prefix; what })));
      let w = wal_handle t prefix in
      Wal.truncate w;
      pending

let close_wal t =
  Mutex.protect t.ilock (fun () ->
      match !(t.wal) with
      | Some w ->
          Wal.close w;
          t.wal := None
      | None -> ())

(* ---- scrub / repair (DESIGN.md §15) ------------------------------------- *)

(* One budgeted scrub pass over the handle's lazily-verified regions.
   Folding the report into the quarantine is the policy half the engine
   deliberately lacks: index-region or per-key damage quarantines the
   handle (its bytes are untrusted, queries switch to the corpus
   fallback); corpus-store damage is reported but cannot quarantine —
   the store is the source of truth and the fallback needs it too. *)
let scrub ?budget t =
  let r =
    Scrub.pass ?budget t.integ.i_cursor ~index:t.index
      ~store:(Corpus.store t.corpus)
  in
  Mutex.protect t.integ.i_lock (fun () ->
      t.integ.scrub_passes <- t.integ.scrub_passes + 1;
      t.integ.scrub_bytes <- t.integ.scrub_bytes + r.Scrub.bytes_verified;
      if r.Scrub.complete then begin
        t.integ.bad_keys <- r.Scrub.bad_keys;
        t.integ.bad_trees <- r.Scrub.bad_trees
      end);
  let index_bad =
    r.Scrub.bad_keys <> []
    || List.exists
         (fun n -> n = "kindex" || n = "keydir" || n = "postings")
         r.Scrub.bad_regions
  in
  if index_bad then Atomic.set t.integ.quarantined true;
  r

(* Rebuild the index from the source of truth — the corpus store plus the
   delta (which holds every WAL record, replayed at open or inserted
   live) — and publish it through the §9 staged-rename protocol.  Unlike
   {!checkpoint}, nothing is merged from the old postings: the damaged
   index contributes no bytes to the new one.  Crash windows mirror the
   checkpoint's: before the publish renames the old set + WAL answer as
   before; mid-rename the [.meta] idx_crc refuses the mixed set; after
   the publish a leftover WAL replays records the new index already
   covers (skipped by tid).  The in-memory handle still maps the old
   bytes afterwards (and keeps its quarantine): reopen the prefix — the
   server rides this through the refcounted generation swap — to serve
   the repaired index. *)
let repair t =
  let prefix = require_prefix t "repair" in
  Atomic.set t.integ.repairing true;
  let r =
    Si_error.guard @@ fun () ->
    Fun.protect
      ~finally:(fun () -> Atomic.set t.integ.repairing false)
    @@ fun () ->
    Mutex.protect t.ilock @@ fun () ->
    Failpoint.hit "si.repair.rebuild";
    let d = Atomic.get t.delta in
    let main_docs = Corpus.to_array t.corpus in
    let all_docs = Array.append main_docs d.d_docs in
    let label_id l =
      match Hashtbl.find_opt d.d_space.ids (Label.name l) with
      | Some id -> id
      | None -> raise Not_found
    in
    let index =
      Builder.build ~scheme:t.index.Builder.scheme ~mss:t.index.Builder.mss
        ~label_id all_docs
    in
    let all_trees =
      Array.to_list (Array.map (fun doc -> doc.Annotated.tree) all_docs)
    in
    let staged = { t with index; corpus = Corpus.of_array all_docs } in
    Failpoint.hit "si.repair.publish";
    (try
       save ~format:(format t)
         ~labels:(Array.to_list d.d_space.names)
         staged prefix all_trees
     with Sys_error what ->
       raise (Si_error.Error (Si_error.Io { path = prefix; what })));
    Failpoint.hit "si.repair.wal-truncate";
    (* the delta is folded into the published index: drop the WAL (same
       crash window as the checkpoint's — published-but-untruncated
       records replay as no-ops, skipped by tid) *)
    (if
       Sys.file_exists (Wal.path prefix)
       && (try (Unix.stat (Wal.path prefix)).Unix.st_size > 8
           with Unix.Unix_error _ -> false)
     then
       let w = wal_handle t prefix in
       Wal.truncate w);
    Array.length all_docs
  in
  Mutex.protect t.integ.i_lock (fun () ->
      match r with
      | Ok _ -> t.integ.repairs <- t.integ.repairs + 1
      | Error _ -> t.integ.repair_failures <- t.integ.repair_failures + 1);
  r

(* ---- integrity introspection -------------------------------------------- *)

type integrity_state = [ `Ok | `Degraded | `Repairing ]

type integrity_stats = {
  state : integrity_state;
  quarantined_keys : int;
  quarantined_trees : int;
  fallback_answers : int;
  scrub_passes : int;
  scrub_bytes : int;
  repairs : int;
  repair_failures : int;
}

let quarantined t = Atomic.get t.integ.quarantined

let integrity t =
  Mutex.protect t.integ.i_lock @@ fun () ->
  {
    state =
      (if Atomic.get t.integ.repairing then `Repairing
       else if Atomic.get t.integ.quarantined then `Degraded
       else `Ok);
    quarantined_keys = List.length t.integ.bad_keys;
    quarantined_trees = List.length t.integ.bad_trees;
    fallback_answers = t.integ.fallbacks;
    scrub_passes = t.integ.scrub_passes;
    scrub_bytes = t.integ.scrub_bytes;
    repairs = t.integ.repairs;
    repair_failures = t.integ.repair_failures;
  }

(* ---- query paths -------------------------------------------------------- *)

let delta_arg t =
  let d = Atomic.get t.delta in
  if Array.length d.d_docs = 0 then None
  else Some (d.d_index, d.d_corpus, Corpus.length t.corpus)

(* ---- integrity quarantine + corpus fallback (DESIGN.md §15) ------------- *)

(* Only damage to the index's {e own} bytes is containable: the index is
   derived data, reconstructible from the corpus.  Corpus-store damage
   ([.trees]) is damage to the source of truth — it propagates as the
   error it is, because the fallback below could not answer exactly
   either. *)
let is_index_error t e =
  match Si_error.corrupt_path e with
  | Some path -> path = t.index.Builder.origin && path <> "<memory>"
  | None -> false

(* A query just decoded corrupt index bytes: quarantine the handle so
   this is the last query the damage ever touches (the discovering query
   itself re-answers through the fallback). *)
let note_corrupt t e =
  if is_index_error t e then begin
    Atomic.set t.integ.quarantined true;
    true
  end
  else false

(* The quarantine answer path: match every corpus tree directly (the
   oracle's evaluation, governed by the query's {!Limits} gauge).  Exact
   — identical to the index answer — just slower; under budget pressure
   it degrades to a truncated subset exactly like the index path.  Every
   outcome carries [degraded = true] (the wire's [degraded=integrity]).

   Trees decode through {!Corpus.get}: for a mapped corpus that is the
   [.trees] store's defensive, memoized decode — damage there surfaces
   as the [Corrupt] it is. *)
let fallback_eval ?(limits = Limits.none) ?shared t q =
  let limits =
    match shared with Some sh -> Limits.shared_limits sh | None -> limits
  in
  let ctx =
    match shared with
    | Some sh -> Limits.start_shared sh
    | None -> Limits.start limits
  in
  let d = Atomic.get t.delta in
  let n = Corpus.length t.corpus in
  let total = n + Array.length d.d_docs in
  let acc = ref [] in
  let finish truncated =
    let matches =
      match ctx with Some c -> Limits.collected c | None -> List.rev !acc
    in
    { Limits.matches; truncated; degraded = true }
  in
  match
    for tid = 0 to total - 1 do
      let doc = if tid < n then Corpus.get t.corpus tid else d.d_docs.(tid - n) in
      (match ctx with
      | Some c ->
          Limits.step c;
          Limits.charge_decode c (Annotated.size doc)
      | None -> ());
      List.iter
        (fun node ->
          match ctx with
          | Some c -> Limits.emit c (tid, node)
          | None -> acc := (tid, node) :: !acc)
        (Si_query.Matcher.roots doc q)
    done
  with
  | () -> finish false
  | exception Limits.Truncated -> finish true
  | exception
      Si_error.Error (Si_error.Timeout _ | Si_error.Resource_exhausted _)
    when limits.Limits.partial ->
      finish true

let fallback_outcome ?limits ?shared t q =
  let r = Si_error.guard (fun () -> fallback_eval ?limits ?shared t q) in
  (match r with
  | Ok _ ->
      Mutex.protect t.integ.i_lock (fun () ->
          t.integ.fallbacks <- t.integ.fallbacks + 1)
  | Error _ -> ());
  r

(* Every AST-level query of a single handle funnels through here — the
   string paths, {!query_batch} slots and sharded legs included — so a
   quarantined handle answers from the corpus on all of them. *)
let outcome_ast ~cache ?limits ?shared t q =
  if Atomic.get t.integ.quarantined then fallback_outcome ?limits ?shared t q
  else
    match
      Eval.run_outcome ~index:t.index ~corpus:t.corpus ~label_id:t.label_id
        ~cache ?delta:(delta_arg t) ?limits ?shared q
    with
    | Error e when note_corrupt t e ->
        (* the discovering query is contained too: answer it *)
        fallback_outcome ?limits ?shared t q
    | r -> r

let query_ast ?limits t q =
  Result.map
    (fun (o : Limits.outcome) -> o.Limits.matches)
    (outcome_ast ~cache:t.cache ?limits t q)

let outcome_with ~cache ?limits t s =
  match Si_query.Parser.parse s with
  | Ok q -> outcome_ast ~cache ?limits t q
  | Error e -> Error (Si_error.Bad_query e)

let query_outcome ?limits t s = outcome_with ~cache:t.cache ?limits t s
let query_outcome_cached ~cache ?limits t s = outcome_with ~cache ?limits t s

let query_with ~cache ?limits t s =
  Result.map (fun (o : Limits.outcome) -> o.Limits.matches)
    (outcome_with ~cache ?limits t s)

let query ?limits t s = query_with ~cache:t.cache ?limits t s

let oracle t q =
  let d = Atomic.get t.delta in
  let docs = Corpus.to_array t.corpus in
  let docs = if d.d_docs = [||] then docs else Array.append docs d.d_docs in
  Si_query.Matcher.corpus_roots docs q

(* ---- parallel batch evaluation ----------------------------------------- *)

type domain_stat = {
  queries_run : int;
  errors : int;
  busy_ns : int;
  died : string option;
}

type batch = {
  answers : (Limits.outcome, Si_error.t) result array;
  latencies_ns : float array;
  elapsed_s : float;
  cache : Cache.stats;
  domain_stats : domain_stat array;
}

let slot_sentinel =
  Error (Si_error.Internal "query slot never ran (worker domain died)")

(* Fan the query stream across [domains] OCaml 5 domains over this one
   handle.  The hot path takes no locks: the index slots and corpus are
   only read (the streaming evaluator never touches the decode memo), each
   domain evaluates through its own cache, and the result slots written
   are disjoint per domain (static round-robin split).  The only shared
   mutable state — the label intern table touched by query parsing — is
   mutex-guarded.

   Fault isolation: one query must never take the batch down.  Every slot
   starts as {!slot_sentinel}; an exception escaping a single evaluation
   (an evaluator bug, [Stack_overflow], ...) is captured as
   [Error (Internal _)] in that slot and the domain moves on; a domain
   that dies anyway (or fails to spawn) leaves its remaining slots as the
   sentinel and is reported in its [domain_stat.died], never by rethrow. *)
let clamp_warned = Atomic.make false

let query_batch ?(domains = 1) ?cache_budget ?limits t queries =
  if domains < 1 then invalid_arg "Si.query_batch: domains must be >= 1";
  (* CPU-bound fan-out: more workers than cores is strictly slower (the
     1-core container measures --domains 2 losing to 1, EXPERIMENTS.md),
     so clamp and say so rather than silently oversubscribing.  The
     warning prints once per process — a server calling in a loop must
     not spam one line per batch. *)
  let domains =
    let cores = Domain.recommended_domain_count () in
    if domains > cores then begin
      if not (Atomic.exchange clamp_warned true) then
        Printf.eprintf
          "si: clamping batch domains %d -> %d (recommended_domain_count)\n%!"
          domains cores;
      cores
    end
    else domains
  in
  let n = Array.length queries in
  let answers = Array.make n slot_sentinel in
  let latencies = Array.make n 0. in
  let run_range d =
    let cache = Cursor.create_cache ?budget:cache_budget () in
    let ran = ref 0 and errs = ref 0 and busy = ref 0 in
    let i = ref d in
    while !i < n do
      let t0 = Monotonic.now_ns () in
      let r =
        try outcome_with ~cache ?limits t queries.(!i)
        with e -> Error (Si_error.Internal (Printexc.to_string e))
      in
      let dt = Monotonic.now_ns () - t0 in
      answers.(!i) <- r;
      latencies.(!i) <- float_of_int dt;
      busy := !busy + dt;
      incr ran;
      (match r with Error _ -> incr errs | Ok _ -> ());
      i := !i + domains
    done;
    ( Cache.stats cache,
      { queries_run = !ran; errors = !errs; busy_ns = !busy; died = None } )
  in
  let dead what =
    ( Cache.zero_stats 0,
      { queries_run = 0; errors = 0; busy_ns = 0; died = Some what } )
  in
  let t0 = Monotonic.now_ns () in
  let per_domain =
    if domains = 1 then [| run_range 0 |]
    else begin
      (* reuse the process-wide shard-affinity pool instead of spawning
         (and tearing down) domains-1 fresh domains per call: repeated
         batches over a long-lived process pay the spawn cost once.  The
         range tasks are leaf work (they never submit back into the
         pool), so running them on pool workers cannot deadlock. *)
      let pool = Pool.global () in
      let submitted =
        Array.init (domains - 1) (fun k ->
            Pool.submit pool ~worker:(k + 1) (fun () -> run_range (k + 1)))
      in
      let first = run_range 0 in
      let joined =
        Array.map
          (fun task ->
            match Pool.await task with
            | Ok r -> r
            | Error e -> dead ("worker domain died: " ^ Printexc.to_string e))
          submitted
      in
      Array.append [| first |] joined
    end
  in
  let elapsed_s = Monotonic.elapsed_s t0 in
  {
    answers;
    latencies_ns = latencies;
    elapsed_s;
    cache =
      Array.fold_left
        (fun acc (cs, _) -> Cache.add_stats acc cs)
        (Cache.zero_stats 0) per_domain;
    domain_stats = Array.map snd per_domain;
  }

(* ---- sharded handles (DESIGN.md §14) ------------------------------------ *)

(* One logical index split across [sh_map.shards] per-shard prefixes,
   each a complete stand-alone index with shard-local tids.  Globality
   lives entirely in the router: global tid [g] belongs to shard
   [Shardmap.shard_of_tid g], and within a shard the local order is the
   global order restricted to it, so the local->global map of shard [s]
   is the sorted array of assigned global tids ([Shardmap.assign]).

   Affinity invariant: shard [i] is only ever evaluated on pool worker
   [i mod size] (each worker drains its queue sequentially), so shard
   [i]'s decoded-block cache — not thread-safe — is touched by exactly
   one domain without any locking.  Sharded queries therefore always go
   through the pool, even when it has one worker. *)
type sharded = {
  sh_prefix : string;
  sh_map : Shardmap.t;
  sh_shards : t array;
  sh_l2g : int array Atomic.t array;
      (* per shard, local tid -> global tid; replaced by copy on insert
         *before* the delta publishes, so any match a racing query can
         see already has a mapping *)
  sh_pool : Pool.t;
  sh_lock : Mutex.t;  (* serializes insert / checkpoint across shards *)
  sh_total : int Atomic.t;  (* global tree count, main + deltas *)
}

type handle = Single of t | Sharded of sharded

let shard_count sh = sh.sh_map.Shardmap.shards
let shard_handles sh = sh.sh_shards
let sharded_prefix sh = sh.sh_prefix
let shard_map sh = sh.sh_map
let sharded_total sh = Atomic.get sh.sh_total

let visible t = Corpus.length t.corpus + pending t

(* The count/assignment consistency check: each member shard's visible
   tree count must equal what the router assigns it for the summed
   total.  A shard file swapped in from another corpus (or a lost /
   duplicated shard WAL) shows up as a count skew long before a query
   returns silently misrouted tids. *)
let check_assignment ~prefix map shards =
  let per = Array.map visible shards in
  let total = Array.fold_left ( + ) 0 per in
  let want = Shardmap.counts map ~total in
  Array.iteri
    (fun i n ->
      if n <> want.(i) then
        Si_error.raise_schema
          ~path:(Shardmap.manifest_path prefix)
          (Printf.sprintf
             "shard %d holds %d trees but the router assigns it %d of %d — \
              mixed or stale shard set"
             i n want.(i) total))
    per;
  total

let mk_sharded ~prefix ~map ~shards ~total =
  {
    sh_prefix = prefix;
    sh_map = map;
    sh_shards = shards;
    sh_l2g = Array.map Atomic.make (Shardmap.assign map ~total);
    sh_pool = Pool.global ();
    sh_lock = Mutex.create ();
    sh_total = Atomic.make total;
  }

let open_sharded ?cache_budget prefix =
  Si_error.guard @@ fun () ->
  let map = Shardmap.load prefix in
  let shards =
    Array.init map.Shardmap.shards (fun i ->
        match open_ ?cache_budget (Shardmap.shard_prefix prefix i) with
        | Ok t -> t
        | Error e -> raise (Si_error.Error e))
  in
  Array.iteri
    (fun i t ->
      if
        t.index.Builder.scheme <> map.Shardmap.scheme
        || t.index.Builder.mss <> map.Shardmap.mss
      then
        Si_error.raise_schema
          ~path:(Shardmap.shard_prefix prefix i ^ ".idx")
          (Printf.sprintf
             "shard %d is %s/mss=%d but the manifest pins %s/mss=%d" i
             (Coding.scheme_to_string t.index.Builder.scheme)
             t.index.Builder.mss
             (Coding.scheme_to_string map.Shardmap.scheme)
             map.Shardmap.mss))
    shards;
  let total = check_assignment ~prefix map shards in
  mk_sharded ~prefix ~map ~shards ~total

let build_sharded ?(domains = 1) ?cache_budget ?format ~shards:nshards ~scheme
    ~mss ~trees prefix =
  Si_error.guard @@ fun () ->
  if nshards < 1 then invalid_arg "Si.build_sharded: shards must be >= 1";
  let all = Array.of_list trees in
  let total = Array.length all in
  let map = { Shardmap.shards = nshards; scheme; mss } in
  let rows = Shardmap.assign map ~total in
  let per_shard =
    Array.map (fun row -> Array.to_list (Array.map (fun g -> all.(g)) row)) rows
  in
  (* per-shard builds are independent (the label intern table is
     mutex-guarded); fan them across the affinity pool so a multi-core
     builder overlaps them, one worker per shard *)
  ignore domains;
  let pool = Pool.global () in
  let tasks =
    Array.mapi
      (fun i shard_trees ->
        Pool.submit pool ~worker:i (fun () ->
            build ?cache_budget ?format ~scheme ~mss ~trees:shard_trees
              ~prefix:(Shardmap.shard_prefix prefix i)
              ()))
      per_shard
  in
  let handles =
    Array.map
      (fun task ->
        match Pool.await task with
        | Ok t -> t
        | Error (Si_error.Error e) -> raise (Si_error.Error e)
        | Error e -> raise e)
      tasks
  in
  (* the manifest is the commit point: a crash before this rename leaves
     only unreferenced .shardK files behind *)
  Shardmap.save map prefix;
  mk_sharded ~prefix ~map ~shards:handles ~total

let open_any ?cache_budget prefix =
  if Shardmap.is_sharded prefix then
    Result.map (fun sh -> Sharded sh) (open_sharded ?cache_budget prefix)
  else Result.map (fun t -> Single t) (open_ ?cache_budget prefix)

(* ---- sharded queries: fan-out / merge ----------------------------------- *)

type sharded_outcome = {
  so_outcome : Limits.outcome;
  so_failed : (int * Si_error.t) list;
      (* shards whose leg failed, in shard order; non-empty only under
         [degrade] (a brownout answer) *)
}

let cmp_pair (a1, a2) (b1, b2) =
  if a1 <> b1 then Int.compare a1 b1 else Int.compare (a2 : int) b2

(* K-way merge of the per-shard match lists, each sorted by global tid.
   The router gives every tree to exactly one shard, so the streams are
   disjoint — no dedup, plain least-head merge.  [max_results] caps the
   merged stream; everything kept was verified by its shard, so a capped
   answer is still a subset of the exact one (the contract). *)
let merge_matches ?max_results lists =
  let arrs = Array.map Array.of_list lists in
  let k = Array.length arrs in
  let pos = Array.make k 0 in
  let out = ref [] and n = ref 0 and capped = ref false in
  (try
     while true do
       let best = ref (-1) in
       for i = 0 to k - 1 do
         if pos.(i) < Array.length arrs.(i) then
           if
             !best < 0
             || cmp_pair arrs.(i).(pos.(i)) arrs.(!best).(pos.(!best)) < 0
           then best := i
       done;
       if !best < 0 then raise Exit;
       (match max_results with
       | Some m when !n >= m ->
           capped := true;
           raise Exit
       | _ -> ());
       out := arrs.(!best).(pos.(!best)) :: !out;
       incr n;
       pos.(!best) <- pos.(!best) + 1
     done
   with Exit -> ());
  (List.rev !out, !capped)

let remap_shard ~prefix i l2g matches =
  let row_len = Array.length l2g in
  List.map
    (fun (local, node) ->
      if local < 0 || local >= row_len then
        Si_error.raise_corrupt
          ~path:(Shardmap.shard_prefix prefix i ^ ".idx")
          ~offset:0
          (Printf.sprintf
             "shard %d matched local tid %d outside its %d-tree assignment"
             i local row_len)
      else (l2g.(local), node))
    matches

(* Fan one parsed query out over every shard on its affinity worker and
   merge.  One [Limits.share] gauge spans all legs: bytes and steps pool
   atomically, the deadline runs from the fan-out start, and
   [max_results] is enforced per leg *and* on the merged stream, so
   truncation anywhere still yields a verified subset.

   [degrade = false] (the CLI default): any failed leg fails the query
   with that shard's error.  [degrade = true] (the serving path): failed
   legs are dropped, the healthy ones answer with [truncated = true] and
   the failures reported in [so_failed] — a brownout, not a 503; only
   when every leg fails does the query fail. *)
let query_outcome_sharded ?(limits = Limits.none) ?(degrade = false) sh s =
  match Si_query.Parser.parse s with
  | Error e -> Error (Si_error.Bad_query e)
  | Ok q ->
      let shared = Limits.share limits in
      let tasks =
        Array.mapi
          (fun i (t : t) ->
            Pool.submit sh.sh_pool ~worker:i (fun () ->
                try
                  Failpoint.hit (Printf.sprintf "si.shard.eval.%d" i);
                  (* the shared funnel: a quarantined member answers its
                     leg from the corpus (degraded), not with an error *)
                  outcome_ast ~cache:t.cache ~limits ?shared t q
                with Sys_error what ->
                  Error
                    (Si_error.Io
                       { path = Shardmap.shard_prefix sh.sh_prefix i; what })))
          sh.sh_shards
      in
      let legs =
        Array.map
          (fun task ->
            match Pool.await task with
            | Ok r -> r
            | Error (Si_error.Error e) -> Error e
            | Error e -> Error (Si_error.Internal (Printexc.to_string e)))
          tasks
      in
      (* snapshot the l2g rows *after* every leg finished: inserts extend
         the row before publishing the delta, so any local tid a leg can
         have matched is already mapped *)
      let l2g = Array.map Atomic.get sh.sh_l2g in
      Si_error.guard @@ fun () ->
      let failed = ref [] and truncated = ref false and degraded = ref false in
      let lists =
        Array.mapi
          (fun i leg ->
            match leg with
            | Ok (o : Limits.outcome) ->
                if o.Limits.truncated then truncated := true;
                if o.Limits.degraded then degraded := true;
                remap_shard ~prefix:sh.sh_prefix i l2g.(i) o.Limits.matches
            | Error e ->
                if not degrade then raise (Si_error.Error e);
                failed := (i, e) :: !failed;
                [])
          legs
      in
      let failed = List.rev !failed in
      if List.length failed = Array.length legs then
        (* every shard refused: nothing to brown out to *)
        raise (Si_error.Error (snd (List.hd failed)));
      let matches, capped =
        merge_matches ?max_results:limits.Limits.max_results
          lists
      in
      {
        so_outcome =
          {
            Limits.matches;
            truncated = !truncated || capped || failed <> [];
            degraded = !degraded;
          };
        so_failed = failed;
      }

let query_sharded ?limits ?degrade sh s =
  Result.map
    (fun so -> so.so_outcome.Limits.matches)
    (query_outcome_sharded ?limits ?degrade sh s)

(* ---- sharded writes ------------------------------------------------------ *)

(* Route each tree to the owner of its global tid and append through the
   owning shard's WAL (shard-local tid numbering — each shard prefix
   stays a complete stand-alone index).  The l2g row extends *before*
   the per-shard insert publishes, keeping the query-side remap total;
   writing [row(local) = g] by position (rather than appending blindly)
   makes a retry after a failed insert idempotent. *)
let insert_sharded sh trees =
  Si_error.guard @@ fun () ->
  Mutex.protect sh.sh_lock @@ fun () ->
  List.iter
    (fun tree ->
      let g = Atomic.get sh.sh_total in
      let s = Shardmap.shard_of_tid ~shards:sh.sh_map.Shardmap.shards g in
      let t = sh.sh_shards.(s) in
      let local = visible t in
      let row = Atomic.get sh.sh_l2g.(s) in
      let row' =
        Array.init (local + 1) (fun j -> if j < local then row.(j) else g)
      in
      Atomic.set sh.sh_l2g.(s) row';
      (match insert t [ tree ] with
      | Ok _ -> ()
      | Error e -> raise (Si_error.Error e));
      Atomic.set sh.sh_total (g + 1))
    trees;
  Atomic.get sh.sh_total

let pending_sharded sh =
  Array.fold_left (fun acc t -> acc + pending t) 0 sh.sh_shards

let wal_bytes_sharded sh =
  Array.fold_left (fun acc t -> acc + wal_bytes t) 0 sh.sh_shards

(* Checkpoint one shard (or all): each shard folds its own delta through
   the §9 staged-rename publish and truncates its own WAL — per-shard
   checkpoint debt drains independently, which is the point of sharding
   the WALs in the first place. *)
let checkpoint_sharded ?shard sh =
  Si_error.guard @@ fun () ->
  Mutex.protect sh.sh_lock @@ fun () ->
  let one i =
    match checkpoint sh.sh_shards.(i) with
    | Ok n -> n
    | Error e -> raise (Si_error.Error e)
  in
  match shard with
  | Some i ->
      if i < 0 || i >= Array.length sh.sh_shards then
        invalid_arg (Printf.sprintf "Si.checkpoint_sharded: no shard %d" i);
      one i
  | None ->
      let total = ref 0 in
      Array.iteri (fun i _ -> total := !total + one i) sh.sh_shards;
      !total

(* A functional flip of one member shard to a freshly opened handle (the
   per-shard zero-downtime swap): shares the router, lock, total and l2g
   state with the old record — inserts keep working through either — and
   re-checks the count assignment so a swapped-in foreign shard is
   refused before any query can touch it. *)
let reopen_shard ?cache_budget sh i =
  Si_error.guard @@ fun () ->
  if i < 0 || i >= Array.length sh.sh_shards then
    invalid_arg (Printf.sprintf "Si.reopen_shard: no shard %d" i);
  match open_ ?cache_budget (Shardmap.shard_prefix sh.sh_prefix i) with
  | Error e -> raise (Si_error.Error e)
  | Ok fresh ->
      let shards = Array.copy sh.sh_shards in
      shards.(i) <- fresh;
      ignore (check_assignment ~prefix:sh.sh_prefix sh.sh_map shards);
      { sh with sh_shards = shards }

let close_wal_sharded sh = Array.iter close_wal sh.sh_shards

(* ---- sharded oracle / sentence ------------------------------------------ *)

let oracle_sharded sh q =
  let l2g = Array.map Atomic.get sh.sh_l2g in
  let per =
    Array.to_list
      (Array.mapi
         (fun i t ->
           List.map (fun (local, node) -> (l2g.(i).(local), node)) (oracle t q))
         sh.sh_shards)
  in
  List.sort cmp_pair (List.concat per)

let sentence_sharded sh g =
  let s = Shardmap.shard_of_tid ~shards:sh.sh_map.Shardmap.shards g in
  let row = Atomic.get sh.sh_l2g.(s) in
  (* the row is strictly increasing: binary-search g's local position *)
  let lo = ref 0 and hi = ref (Array.length row - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) = g then begin
      found := mid;
      lo := !hi + 1
    end
    else if row.(mid) < g then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then
    invalid_arg (Printf.sprintf "Si.sentence_sharded: no tree %d" g)
  else sentence sh.sh_shards.(s) !found

(* ---- sharded scrub / repair / integrity --------------------------------- *)

let scrub_sharded ?budget sh = Array.map (scrub ?budget) sh.sh_shards

let repair_sharded ?shard sh =
  Si_error.guard @@ fun () ->
  Mutex.protect sh.sh_lock @@ fun () ->
  let one i =
    match repair sh.sh_shards.(i) with
    | Ok n -> n
    | Error e -> raise (Si_error.Error e)
  in
  match shard with
  | Some i ->
      if i < 0 || i >= Array.length sh.sh_shards then
        invalid_arg (Printf.sprintf "Si.repair_sharded: no shard %d" i);
      one i
  | None ->
      let total = ref 0 in
      Array.iteri (fun i _ -> total := !total + one i) sh.sh_shards;
      !total

let quarantined_shards sh =
  let out = ref [] in
  Array.iteri
    (fun i t -> if quarantined t then out := i :: !out)
    sh.sh_shards;
  List.rev !out

let integrity_sharded sh =
  let per = Array.map integrity sh.sh_shards in
  let worst =
    Array.fold_left
      (fun acc s ->
        match (acc, s.state) with
        | `Repairing, _ | _, `Repairing -> `Repairing
        | `Degraded, _ | _, `Degraded -> `Degraded
        | `Ok, `Ok -> `Ok)
      `Ok per
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per in
  {
    state = worst;
    quarantined_keys = sum (fun s -> s.quarantined_keys);
    quarantined_trees = sum (fun s -> s.quarantined_trees);
    fallback_answers = sum (fun s -> s.fallback_answers);
    scrub_passes = sum (fun s -> s.scrub_passes);
    scrub_bytes = sum (fun s -> s.scrub_bytes);
    repairs = sum (fun s -> s.repairs);
    repair_failures = sum (fun s -> s.repair_failures);
  }
