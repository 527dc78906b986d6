open Si_treebank
open Si_subtree

type stats = { trees : int; nodes : int; keys : int; postings : int; bytes : int }

(* Which container encoding the slot's bytes use: [V3] is the block-skip
   container (built indexes, and filter / root-split postings of SIDX4
   files), [V4] the SIDX4 interval container whose entries are (tid, pre)
   names resolved against the corpus store at decode time.  [Unpacked]
   slots hold no bytes: {!append} keeps their posting in [decoded] only,
   and the checkpoint's {!merge_append} packs it. *)
type enc = V3 | V4 | Unpacked

(* A slot holds the packed bytes of one posting — a slice of [src] — and
   memoizes its decoded form on first access.  [src] is either a
   per-posting string (after build) or the mapped SIDX4 file, so an opened
   index shares one backing buffer across every slot. *)
type slot = {
  src : Coding.src;
  off : int;
  len : int;
  entries : int;
  enc : enc;
  mutable decoded : Coding.posting option;
}

(* The mapped SIDX4 backend: regions of one read-only mapping consumed in
   place.  [find] binary-searches the key index over the mapped bytes —
   no load-time table is ever built ([table] stays empty).  Region CRCs
   are verified lazily and memoized: the key index + directory pair on the
   first [find], the postings on the first decode.  The flags only ever
   flip to [true] and verification is idempotent, so cross-domain races
   are benign. *)
type mapped = {
  map : Coding.bigstring;
  msrc : Coding.src;
  m_nkeys : int;
  kblock : int;  (* keys per key-directory block *)
  kindex_off : int;
  kindex_len : int;
  keydir_off : int;
  keydir_len : int;
  post_off : int;
  post_len : int;
  crc_kindex : int;
  crc_keydir : int;
  crc_postings : int;
  mutable dir_verified : bool;
  mutable post_verified : bool;
  mutable resolve : (int -> int -> Coding.interval) option;
      (* (tid, pre) -> interval against the corpus store; attached by
         [Si.open_] once the [.trees] sibling is mapped *)
}

type t = {
  scheme : Coding.scheme;
  mss : int;
  table : (string, slot) Hashtbl.t;
  stats : stats;
  origin : string;
  mapped : mapped option;
}

(* ---- shard stage ------------------------------------------------------- *)

(* accumulation state per key, in reverse order *)
type acc =
  | A_filter of int list
  | A_interval of (int * Coding.interval array) list
  | A_root of (int * Coding.interval) list

type shard = { table : (string, acc) Hashtbl.t; nodes : int }

let interval_of doc v =
  {
    Coding.pre = v;
    post = doc.Annotated.post.(v);
    level = doc.Annotated.level.(v);
  }

(* Accumulate postings for docs.(lo .. hi-1), numbering docs.(i) as tid
   [base + i]; tids are global, so a shard over a contiguous tid range
   accumulates exactly the subsequence of the sequential accumulation
   falling in that range.  The per-key dedups (filter: same tid;
   root-split: same (tid, root)) never straddle a shard boundary because
   both compare on the tid.  The table starts at two buckets per node, so
   a one-tree insert does not allocate a corpus-sized table. *)
let build_shard ?label_id ?(base = 0) ~scheme ~mss docs lo hi =
  let nodes = ref 0 in
  for i = lo to hi - 1 do
    nodes := !nodes + Annotated.size docs.(i)
  done;
  let table = Hashtbl.create (min 65536 (2 * !nodes)) in
  for i = lo to hi - 1 do
    let tid = base + i and doc = docs.(i) in
    Extract.fold_instances ?label_id doc ~mss ~init:() ~f:(fun () ~key ~nodes:inst ->
        let prev = Hashtbl.find_opt table key in
        let next =
          match scheme with
          | Coding.Filter -> (
              match prev with
              | Some (A_filter (t :: _)) when t = tid -> prev
              | Some (A_filter ts) -> Some (A_filter (tid :: ts))
              | _ -> Some (A_filter [ tid ]))
          | Coding.Root_split -> (
              let root = inst.(0) in
              let entry = (tid, interval_of doc root) in
              match prev with
              | Some (A_root (e :: _)) when e = entry -> prev
              | Some (A_root es) -> Some (A_root (entry :: es))
              | _ -> Some (A_root [ entry ]))
          | Coding.Interval -> (
              let ivs = Array.map (interval_of doc) inst in
              match prev with
              | Some (A_interval es) -> Some (A_interval ((tid, ivs) :: es))
              | _ -> Some (A_interval [ (tid, ivs) ]))
        in
        match next with
        | Some acc when next != prev -> Hashtbl.replace table key acc
        | _ -> ())
  done;
  { table; nodes = !nodes }

(* ---- merge stage ------------------------------------------------------- *)

(* Concatenate per-key accumulations in shard (= tid) order.  Lists are in
   reverse order, so later shards prepend: fold shards left to right,
   appending the earlier accumulation *behind* the later one.  The result
   is indistinguishable from a single-shard accumulation. *)
let merge_shards shards =
  match shards with
  | [] -> { table = Hashtbl.create 16; nodes = 0 }
  | first :: rest ->
      List.iter
        (fun shard ->
          Hashtbl.iter
            (fun key acc ->
              match Hashtbl.find_opt first.table key with
              | None -> Hashtbl.replace first.table key acc
              | Some prev ->
                  let merged =
                    match (prev, acc) with
                    | A_filter a, A_filter b -> A_filter (b @ a)
                    | A_interval a, A_interval b -> A_interval (b @ a)
                    | A_root a, A_root b -> A_root (b @ a)
                    | _ -> assert false
                  in
                  Hashtbl.replace first.table key merged)
            shard.table)
        rest;
      {
        table = first.table;
        nodes = List.fold_left (fun a s -> a + s.nodes) 0 shards;
      }

(* ---- finalize stage ---------------------------------------------------- *)

let posting_of_acc = function
  | A_filter ts -> Coding.Filter_p (Array.of_list (List.rev ts))
  | A_interval es -> Coding.Interval_p (Array.of_list (List.rev es))
  | A_root es -> Coding.Root_p (Array.of_list (List.rev es))

let slot_of_posting ?block_entries p =
  let buf = Buffer.create 64 in
  Coding.pack_v3 ?block_entries buf p;
  let src = Buffer.contents buf in
  {
    src = Coding.str src;
    off = 0;
    len = String.length src;
    entries = Coding.entries p;
    enc = V3;
    decoded = Some p;
  }

let finalize ?block_entries ~scheme ~mss ~trees merged =
  let final = Hashtbl.create (Hashtbl.length merged.table) in
  let postings = ref 0 in
  let bytes = ref 0 in
  Hashtbl.iter
    (fun key acc ->
      let p = posting_of_acc acc in
      let slot = slot_of_posting ?block_entries p in
      postings := !postings + slot.entries;
      bytes :=
        !bytes + Varint.size (String.length key) + String.length key
        + Varint.size slot.len + slot.len;
      Hashtbl.replace final key slot)
    merged.table;
  {
    scheme;
    mss;
    table = final;
    stats =
      {
        trees;
        nodes = merged.nodes;
        keys = Hashtbl.length final;
        postings = !postings;
        bytes = !bytes;
      };
    origin = "<memory>";
    mapped = None;
  }

let build ?(domains = 1) ?block_entries ?label_id ~scheme ~mss docs =
  if mss < 1 || mss > 255 then invalid_arg "Builder.build: mss out of range";
  if domains < 1 then invalid_arg "Builder.build: domains must be >= 1";
  let n = Array.length docs in
  let domains = min domains (max n 1) in
  let merged =
    if domains = 1 then build_shard ?label_id ~scheme ~mss docs 0 n
    else begin
      (* contiguous tid ranges, one per domain *)
      let bounds = Array.init (domains + 1) (fun i -> i * n / domains) in
      let spawned =
        Array.init (domains - 1) (fun i ->
            let lo = bounds.(i + 1) and hi = bounds.(i + 2) in
            Domain.spawn (fun () -> build_shard ?label_id ~scheme ~mss docs lo hi))
      in
      let first = build_shard ?label_id ~scheme ~mss docs bounds.(0) bounds.(1) in
      let rest = Array.to_list (Array.map Domain.join spawned) in
      merge_shards (first :: rest)
    end
  in
  finalize ?block_entries ~scheme ~mss ~trees:n merged

(* ---- format constants --------------------------------------------------- *)

let magic = "SIDX4\n"
let header_len = 8
let footer_magic = "SI4F"
let footer_len = 72
let default_key_block = 64

let scheme_byte = function
  | Coding.Filter -> 'F'
  | Coding.Interval -> 'I'
  | Coding.Root_split -> 'R'

let scheme_of_byte path = function
  | 'F' -> Coding.Filter
  | 'I' -> Coding.Interval
  | 'R' -> Coding.Root_split
  | c ->
      Si_error.raise_corrupt ~path ~offset:(String.length magic)
        (Printf.sprintf "bad scheme byte %C (want F, I or R)" c)

(* A key must begin with a root label varint followed by the root size byte
   (= node count, in [1, mss]) — validated before [Canonical.key_size] or
   the posting decoder ever consume it. *)
let checked_key_size path ~offset ~mss key =
  let corrupt what = Si_error.raise_corrupt ~path ~offset what in
  match Varint.read key 0 with
  | exception Invalid_argument _ -> corrupt "malformed key (bad root label varint)"
  | _, o ->
      if o >= String.length key then corrupt "malformed key (missing root size byte)";
      let ks = Char.code key.[o] in
      if ks < 1 || ks > mss then
        corrupt (Printf.sprintf "key size %d outside 1..mss=%d" ks mss);
      ks

(* ---- access ------------------------------------------------------------ *)

(* Run a decoding thunk, mapping codec failures to [Corrupt] against the
   index's origin path. *)
let guard_decode (t : t) ~offset f =
  try f () with
  | Coding.Malformed { offset; what } ->
      Si_error.raise_corrupt ~path:t.origin ~offset what
  | Invalid_argument what ->
      Si_error.raise_corrupt ~path:t.origin ~offset ("malformed posting: " ^ what)

let resolve_exn (t : t) =
  match t.mapped with
  | Some { resolve = Some r; _ } -> r
  | _ ->
      Si_error.raise_schema ~path:t.origin
        "SIDX4 interval postings need a corpus store to resolve intervals \
         (open the index through Si, not Builder.load alone)"

(* Lazy region verification.  The 72-byte footer and 8-byte header were
   checked at open; the three body regions are vouched for on first
   touch — directory regions before the first key lookup, postings before
   the first decode. *)
let ensure_dir_verified (t : t) (m : mapped) =
  if not m.dir_verified then begin
    if Crc32.bigsub m.map m.kindex_off m.kindex_len <> m.crc_kindex then
      Si_error.raise_corrupt ~path:t.origin ~offset:m.kindex_off
        "key index checksum mismatch";
    if Crc32.bigsub m.map m.keydir_off m.keydir_len <> m.crc_keydir then
      Si_error.raise_corrupt ~path:t.origin ~offset:m.keydir_off
        "key directory checksum mismatch";
    m.dir_verified <- true
  end

let ensure_post_verified (t : t) (m : mapped) =
  if not m.post_verified then begin
    if Crc32.bigsub m.map m.post_off m.post_len <> m.crc_postings then
      Si_error.raise_corrupt ~path:t.origin ~offset:m.post_off
        "postings checksum mismatch";
    m.post_verified <- true
  end

let ensure_postings_readable (t : t) (slot : slot) =
  match (slot.src, t.mapped) with
  | Coding.Map _, Some m -> ensure_post_verified t m
  | _ -> ()

let mapped_enc (t : t) = if t.scheme = Coding.Interval then V4 else V3

(* kindex entry of key-block [b]: offsets of its first key record (relative
   to the key directory) and first posting (relative to the postings
   region). *)
let mapped_block_start (t : t) (m : mapped) b =
  let at = m.kindex_off + (16 * b) in
  let koff = Mmap.u64 ~path:t.origin m.map at in
  let poff = Mmap.u64 ~path:t.origin m.map (at + 8) in
  if koff >= m.keydir_len then
    Si_error.raise_corrupt ~path:t.origin ~offset:at
      "key-block offset outside the key directory";
  if poff > m.post_len then
    Si_error.raise_corrupt ~path:t.origin ~offset:(at + 8)
      "key-block posting offset outside the postings region";
  (koff, poff)

(* One key-directory record at [off]: block-first records store the whole
   key, the rest front-code against the previous key in the block. *)
let mapped_record (t : t) (m : mapped) ~first ~prev off =
  let limit = m.keydir_off + m.keydir_len in
  let corrupt what = Si_error.raise_corrupt ~path:t.origin ~offset:off what in
  let vread o = Coding.checked_varint ~limit m.msrc o in
  let lcp, o = if first then (0, off) else vread off in
  let slen, o = vread o in
  if lcp > String.length prev then
    corrupt "front-coded prefix longer than the previous key";
  if slen > limit - o then corrupt "key suffix overruns the key directory";
  let key =
    if lcp = 0 then Coding.src_sub m.msrc o slen
    else String.sub prev 0 lcp ^ Coding.src_sub m.msrc o slen
  in
  let o = o + slen in
  let entries, o = vread o in
  let plen, o = vread o in
  if plen < 1 then corrupt "zero-length posting";
  (key, entries, plen, o)

(* first key of key-block [b] — stored without front coding *)
let mapped_first_key (t : t) (m : mapped) b =
  let koff, _ = mapped_block_start t m b in
  let limit = m.keydir_off + m.keydir_len in
  let off = m.keydir_off + koff in
  let slen, o = Coding.checked_varint ~limit m.msrc off in
  if slen > limit - o then
    Si_error.raise_corrupt ~path:t.origin ~offset:off
      "key suffix overruns the key directory";
  Coding.src_sub m.msrc o slen

(* O(log nblocks) probes + one in-block front-coded scan; never touches the
   postings region, so a miss stays inside the directory pages. *)
let mapped_find_slot (t : t) (m : mapped) key =
  if m.m_nkeys = 0 then None
  else begin
    ensure_dir_verified t m;
    guard_decode t ~offset:m.keydir_off (fun () ->
        let nblocks = (m.m_nkeys + m.kblock - 1) / m.kblock in
        if String.compare (mapped_first_key t m 0) key > 0 then None
        else begin
          (* greatest block whose first key <= key *)
          let lo = ref 0 and hi = ref (nblocks - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi + 1) lsr 1 in
            if String.compare (mapped_first_key t m mid) key <= 0 then lo := mid
            else hi := mid - 1
          done;
          let b = !lo in
          let koff, poff = mapped_block_start t m b in
          let nrec = min m.kblock (m.m_nkeys - (b * m.kblock)) in
          let off = ref (m.keydir_off + koff) in
          let post = ref poff in
          let prev = ref "" in
          let result = ref None in
          (try
             for i = 0 to nrec - 1 do
               let k, entries, plen, o =
                 mapped_record t m ~first:(i = 0) ~prev:!prev !off
               in
               if i > 0 && String.compare k !prev <= 0 then
                 Si_error.raise_corrupt ~path:t.origin ~offset:!off
                   "keys not in strictly increasing order";
               if plen > m.post_len - !post then
                 Si_error.raise_corrupt ~path:t.origin ~offset:!off
                   "posting overruns the postings region";
               let c = String.compare k key in
               if c = 0 then begin
                 result :=
                   Some
                     {
                       src = m.msrc;
                       off = m.post_off + !post;
                       len = plen;
                       entries;
                       enc = mapped_enc t;
                       decoded = None;
                     };
                 raise Exit
               end
               else if c > 0 then raise Exit;
               post := !post + plen;
               prev := k;
               off := o
             done
           with Exit -> ());
          !result
        end)
  end

(* Sequential sorted walk of every mapped key record, cross-checking the
   key index at each block boundary and the region tilings at the end —
   a full structural pass over the directory, run only by the
   tools/save paths that genuinely need every key. *)
let mapped_iter_slots (t : t) (m : mapped) f =
  ensure_dir_verified t m;
  guard_decode t ~offset:m.keydir_off (fun () ->
      let corrupt offset what = Si_error.raise_corrupt ~path:t.origin ~offset what in
      let enc = mapped_enc t in
      let off = ref m.keydir_off in
      let post = ref 0 in
      let prev = ref "" in
      for i = 0 to m.m_nkeys - 1 do
        let first = i mod m.kblock = 0 in
        if first then begin
          let koff, poff = mapped_block_start t m (i / m.kblock) in
          if koff <> !off - m.keydir_off || poff <> !post then
            corrupt !off "key index disagrees with the key directory records"
        end;
        let k, entries, plen, o = mapped_record t m ~first ~prev:!prev !off in
        if i > 0 && String.compare k !prev <= 0 then
          corrupt !off "keys not in strictly increasing order";
        ignore (checked_key_size t.origin ~offset:!off ~mss:t.mss k);
        if plen > m.post_len - !post then
          corrupt !off "posting overruns the postings region";
        f k
          {
            src = m.msrc;
            off = m.post_off + !post;
            len = plen;
            entries;
            enc;
            decoded = None;
          };
        post := !post + plen;
        prev := k;
        off := o
      done;
      if !off <> m.keydir_off + m.keydir_len then
        corrupt !off "trailing bytes in the key directory";
      if !post <> m.post_len then
        corrupt m.post_off "posting lengths do not cover the postings region")

let find_slot (t : t) key =
  match t.mapped with
  | None -> Hashtbl.find_opt t.table key
  | Some m -> mapped_find_slot t m key

(* Decode a slot's bytes without the lazy whole-region CRC gate: the
   normal read path runs it behind {!ensure_postings_readable}; the scrub
   runs it bare to localize damage inside a region whose CRC already
   failed (every decode is fully defensive, so hostile bytes surface as
   [Corrupt], never a crash). *)
let decode_slot_unchecked (t : t) key (slot : slot) =
  let finish = slot.off + slot.len in
  let p, consumed =
    guard_decode t ~offset:slot.off (fun () ->
        let key_size = Canonical.key_size key in
        match slot.enc with
        | V3 -> Coding.unpack_v3 t.scheme ~key_size ~limit:finish slot.src slot.off
        | V4 ->
            Coding.unpack_v4 ~key_size ~resolve:(resolve_exn t) ~limit:finish
              slot.src slot.off
        | Unpacked -> (Option.get slot.decoded, finish))
  in
  if consumed <> finish then
    Si_error.raise_corrupt ~path:t.origin ~offset:consumed
      "posting shorter than its recorded length";
  p

let decode_slot (t : t) key (slot : slot) =
  ensure_postings_readable t slot;
  decode_slot_unchecked t key slot

let find_exn (t : t) key =
  match find_slot t key with
  | None -> None
  | Some slot -> (
      match slot.decoded with
      | Some p -> Some p
      | None ->
          let p = decode_slot t key slot in
          slot.decoded <- Some p;
          Some p)

(* ---- block access (the streaming read path) ----------------------------- *)

(* Layout of a slot as decodable blocks.  The v4 container reuses the v3
   framing, so both encodings present uniformly to the cursor layer. *)
let slot_blocks (t : t) (slot : slot) =
  ensure_postings_readable t slot;
  let finish = slot.off + slot.len in
  guard_decode t ~offset:slot.off (fun () ->
      match slot.enc with
      | V3 | V4 ->
          let count, blocks =
            Coding.v3_layout t.scheme ~limit:finish slot.src slot.off
          in
          if count <> slot.entries then
            Si_error.raise_corrupt ~path:t.origin ~offset:slot.off
              "posting entry count disagrees with the key directory";
          blocks
      | Unpacked ->
          (* one flat block; {!decode_block} returns the held posting *)
          [| { Coding.first_tid = -1; boff = 0; blen = 0; bentries = slot.entries } |])

let find_blocks (t : t) key =
  match find_slot t key with
  | None -> None
  | Some slot -> Some (slot, slot_blocks t slot)

let decode_block (t : t) key (slot : slot) (b : Coding.block) =
  Failpoint.hit "builder.decode-block";
  ensure_postings_readable t slot;
  guard_decode t ~offset:b.Coding.boff (fun () ->
      let key_size = Canonical.key_size key in
      match slot.enc with
      | V4 -> Coding.unpack_block_v4 ~key_size ~resolve:(resolve_exn t) slot.src b
      | V3 -> Coding.unpack_block t.scheme ~key_size slot.src b
      | Unpacked -> Option.get slot.decoded)

let find (t : t) key = Si_error.guard (fun () -> find_exn t key)

let posting_entries (t : t) key =
  Option.map (fun (s : slot) -> s.entries) (find_slot t key)

let n_keys (t : t) =
  match t.mapped with None -> Hashtbl.length t.table | Some m -> m.m_nkeys

(* Every (key, slot) pair in sorted key order — the backbone of the tools
   and save paths.  Heap indexes sort their table; mapped ones walk the
   key directory (already sorted, fully cross-checked). *)
let slots_sorted (t : t) =
  match t.mapped with
  | None ->
      List.map
        (fun k -> (k, Hashtbl.find t.table k))
        (List.sort String.compare (Hashtbl.fold (fun k _ a -> k :: a) t.table []))
  | Some m ->
      let acc = ref [] in
      mapped_iter_slots t m (fun k s -> acc := (k, s) :: !acc);
      List.rev !acc


let iter (t : t) f =
  List.iter
    (fun (k, (s : slot)) ->
      let p = match s.decoded with Some p -> p | None -> decode_slot t k s in
      f k p)
    (slots_sorted t)

let length_histogram (t : t) =
  (* power-of-two buckets: count of keys whose posting has <= 2^i entries *)
  let buckets = Array.make 31 0 in
  List.iter
    (fun (_, (slot : slot)) ->
      let rec bucket i = if slot.entries <= 1 lsl i then i else bucket (i + 1) in
      let b = bucket 0 in
      buckets.(b) <- buckets.(b) + 1)
    (slots_sorted t);
  let last = ref 0 in
  Array.iteri (fun i c -> if c > 0 then last := i) buckets;
  Array.to_list (Array.init (!last + 1) (fun i -> (1 lsl i, buckets.(i))))

let block_histogram (t : t) =
  (* nblocks -> number of keys; parses container headers only *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (_, slot) ->
      let n = Array.length (slot_blocks t slot) in
      Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n)))
    (slots_sorted t);
  List.sort compare (Hashtbl.fold (fun n c acc -> (n, c) :: acc) counts [])

(* ---- delta merge ------------------------------------------------------- *)

let shift_posting base = function
  | Coding.Filter_p ts -> Coding.Filter_p (Array.map (fun t -> t + base) ts)
  | Coding.Interval_p es ->
      Coding.Interval_p (Array.map (fun (t, ivs) -> (t + base, ivs)) es)
  | Coding.Root_p es -> Coding.Root_p (Array.map (fun (t, iv) -> (t + base, iv)) es)

let append_postings path a b =
  match (a, b) with
  | Coding.Filter_p x, Coding.Filter_p y -> Coding.Filter_p (Array.append x y)
  | Coding.Interval_p x, Coding.Interval_p y ->
      Coding.Interval_p (Array.append x y)
  | Coding.Root_p x, Coding.Root_p y -> Coding.Root_p (Array.append x y)
  | _ -> Si_error.raise_schema ~path "merge_append: posting coding mismatch"

(* Insert-time growth (DESIGN.md §13): accumulate only [docs], numbered on
   from [t]'s tree count, and concatenate each touched key's new entries
   behind its old posting — still sorted, because every new tid exceeds
   every old one (the rule {!merge_shards} relies on).  [t] is never
   mutated: the table is copied, untouched slots are shared, and a reader
   holding [t] keeps answering from it.  Touched slots stay [Unpacked];
   {!merge_append} packs them once, at checkpoint. *)
let append ?label_id (t : t) docs =
  if t.mapped <> None then invalid_arg "Builder.append: mapped index";
  let base = t.stats.trees in
  let shard =
    build_shard ?label_id ~base ~scheme:t.scheme ~mss:t.mss docs 0
      (Array.length docs)
  in
  let table = Hashtbl.copy t.table in
  let postings = ref t.stats.postings in
  Hashtbl.iter
    (fun key acc ->
      let fresh = posting_of_acc acc in
      postings := !postings + Coding.entries fresh;
      let p =
        match Hashtbl.find_opt table key with
        | None -> fresh
        | Some slot ->
            let old =
              match slot.decoded with Some p -> p | None -> decode_slot t key slot
            in
            append_postings t.origin old fresh
      in
      Hashtbl.replace table key
        {
          src = Coding.str "";
          off = 0;
          len = 0;
          entries = Coding.entries p;
          enc = Unpacked;
          decoded = Some p;
        })
    shard.table;
  {
    t with
    table;
    stats =
      {
        trees = base + Array.length docs;
        nodes = t.stats.nodes + shard.nodes;
        keys = Hashtbl.length table;
        postings = !postings;
        bytes = 0;
      };
  }

(* Checkpoint compaction: fold a delta index (local tids [0 .. K-1]) into
   the main one (tids [0 .. tid_base-1]) as a fresh heap index over
   [tid_base + K] trees.  Both sides decode through {!iter}; shifted delta
   entries append *behind* the main entries of a shared key, which keeps
   every posting sorted because all main tids precede [tid_base].  Works
   for heap and mapped mains alike (a mapped main must have its corpus
   resolver attached — {!Si.open_} always does). *)
let merge_append ?block_entries (main : t) (delta : t) ~tid_base =
  if main.scheme <> delta.scheme || main.mss <> delta.mss then
    Si_error.raise_schema ~path:main.origin
      "merge_append: delta scheme/mss does not match the main index";
  if tid_base <> main.stats.trees then
    invalid_arg "Builder.merge_append: tid_base must equal the main tree count";
  Failpoint.hit "si.checkpoint.merge";
  let acc = Hashtbl.create 65536 in
  iter main (fun key p -> Hashtbl.replace acc key p);
  iter delta (fun key p ->
      let shifted = shift_posting tid_base p in
      match Hashtbl.find_opt acc key with
      | None -> Hashtbl.replace acc key shifted
      | Some prev -> Hashtbl.replace acc key (append_postings main.origin prev shifted));
  let final = Hashtbl.create (Hashtbl.length acc) in
  let postings = ref 0 and bytes = ref 0 in
  Hashtbl.iter
    (fun key p ->
      let slot = slot_of_posting ?block_entries p in
      postings := !postings + slot.entries;
      bytes :=
        !bytes + Varint.size (String.length key) + String.length key
        + Varint.size slot.len + slot.len;
      Hashtbl.replace final key slot)
    acc;
  {
    scheme = main.scheme;
    mss = main.mss;
    table = final;
    stats =
      {
        trees = main.stats.trees + delta.stats.trees;
        nodes = main.stats.nodes + delta.stats.nodes;
        keys = Hashtbl.length final;
        postings = !postings;
        bytes = !bytes;
      };
    origin = "<merge>";
    mapped = None;
  }

(* ---- the SIDX4 file ------------------------------------------------------ *)

(* Layout (mmap-resident, see DESIGN.md §12):

     header    "SIDX4\n"  scheme byte (F|I|R)  mss byte          (8 bytes)
     kindex    per key-block a fixed 16-byte record:
                 u64le first-key offset (relative to keydir)
                 u64le first-posting offset (relative to postings)
     keydir    blocks of [key_block] keys; the block-first record stores
               the whole key (varint slen, bytes), the rest front-code
               against the previous key (varint lcp, varint slen, suffix);
               every record ends with varint entries, varint plen
     postings  interval postings as v4 containers ({!Coding.pack_v4} —
               (tid, pre) names, resolved against the .trees store);
               filter / root-split postings as v3 containers
     footer    u64le nkeys | u64le key_block | u64le kindex_len
               u64le keydir_len | u64le postings_len | u64le reserved(0)
               u32le crc32(header) | u32le crc32(kindex) | u32le crc32(keydir)
               u32le crc32(postings) | u32le crc32(footer before this field)
               "SI4F"                                            (72 bytes)

   [save] writes to [path ^ ".tmp"], fsyncs, then renames — a crash
   mid-save never clobbers an existing index.  Open verifies only the
   footer and header CRCs (O(1)); kindex + keydir verify on the first
   find, postings on the first decode. *)

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

(* Write-to-temporary, fsync, rename.  [f] streams the payload; on any
   [Sys_error] the temporary is removed and the previous file at [path] is
   left untouched.  The four failpoints bracket each state transition of
   the crash-atomicity protocol — the recovery harness kills the process
   at every one of them and asserts a pre-existing index stays loadable. *)
let with_atomic_out path f =
  let tmp = path ^ ".tmp" in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  match
    Failpoint.hit "builder.save.tmp-open";
    let oc = open_out_bin tmp in
    let ok = ref false in
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        if not !ok then cleanup ())
      (fun () ->
        f oc;
        Failpoint.hit "builder.save.write";
        flush oc;
        Failpoint.hit "builder.save.fsync";
        Unix.fsync (Unix.descr_of_out_channel oc);
        ok := true);
    Failpoint.hit "builder.save.rename";
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error what ->
      cleanup ();
      Error (Si_error.Io { path; what })

(* the slot's posting as postings-region bytes: v4 containers for interval
   postings, v3 containers otherwise — re-encoded only when the slot's own
   bytes are not already in that container, keeping a blocked v3 slot's
   block size *)
let file_bytes (t : t) key (slot : slot) =
  let want = mapped_enc t in
  if slot.enc = want then
    match slot.src with
    | Coding.Str s when slot.off = 0 && slot.len = String.length s -> s
    | _ -> Coding.src_sub slot.src slot.off slot.len
  else begin
    let p = match slot.decoded with Some p -> p | None -> decode_slot t key slot in
    let block_entries =
      match (slot.enc, slot_blocks t slot) with
      | V3, bs when Array.length bs > 1 -> Some bs.(0).Coding.bentries
      | _ -> None
    in
    let buf = Buffer.create (slot.len + 16) in
    (match want with
    | V4 -> Coding.pack_v4 ?block_entries buf p
    | _ -> Coding.pack_v3 ?block_entries buf p);
    Buffer.contents buf
  end

let save ?(key_block = default_key_block) (t : t) path =
  if key_block < 1 then invalid_arg "Builder.save: key_block must be >= 1";
  with_atomic_out path (fun oc ->
      let slots = slots_sorted t in
      let nkeys = List.length slots in
      let header =
        Printf.sprintf "%s%c%c" magic (scheme_byte t.scheme) (Char.chr t.mss)
      in
      (* the three regions are buffered whole: the key index needs every
         block's offsets before anything can be streamed *)
      let kindex = Buffer.create (16 * ((nkeys / key_block) + 1)) in
      let keydir = Buffer.create 4096 in
      let postings = Buffer.create 65536 in
      let prev = ref "" in
      List.iteri
        (fun i (key, slot) ->
          let body = file_bytes t key slot in
          if i mod key_block = 0 then begin
            Buffer.add_int64_le kindex (Int64.of_int (Buffer.length keydir));
            Buffer.add_int64_le kindex (Int64.of_int (Buffer.length postings));
            (* the block-first key is stored whole: binary-search probes
               and block scans never need the previous block's last key *)
            Varint.write keydir (String.length key);
            Buffer.add_string keydir key
          end
          else begin
            let lcp = common_prefix !prev key in
            Varint.write keydir lcp;
            Varint.write keydir (String.length key - lcp);
            Buffer.add_substring keydir key lcp (String.length key - lcp)
          end;
          Varint.write keydir slot.entries;
          Varint.write keydir (String.length body);
          Buffer.add_string postings body;
          prev := key)
        slots;
      output_string oc header;
      Buffer.output_buffer oc kindex;
      Buffer.output_buffer oc keydir;
      Buffer.output_buffer oc postings;
      let footer = Buffer.create footer_len in
      Buffer.add_int64_le footer (Int64.of_int nkeys);
      Buffer.add_int64_le footer (Int64.of_int key_block);
      Buffer.add_int64_le footer (Int64.of_int (Buffer.length kindex));
      Buffer.add_int64_le footer (Int64.of_int (Buffer.length keydir));
      Buffer.add_int64_le footer (Int64.of_int (Buffer.length postings));
      Buffer.add_int64_le footer 0L;
      Buffer.add_int32_le footer (Int32.of_int (Crc32.string header));
      Buffer.add_int32_le footer (Int32.of_int (Crc32.string (Buffer.contents kindex)));
      Buffer.add_int32_le footer (Int32.of_int (Crc32.string (Buffer.contents keydir)));
      Buffer.add_int32_le footer
        (Int32.of_int (Crc32.string (Buffer.contents postings)));
      Buffer.add_int32_le footer
        (Int32.of_int (Crc32.string (Buffer.contents footer)));
      Buffer.add_string footer footer_magic;
      Buffer.output_buffer oc footer)

(* The footer's own CRC covers the header CRC, every region CRC and every
   region length, so it names the file's bytes as well as a whole-file
   hash would — and reads in O(1).  It is the [.meta] [idx_crc]. *)
let digest_at (map : Coding.bigstring) = Mmap.u32 map (Bigarray.Array1.dim map - 8)

let file_digest path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic (in_channel_length ic - 8);
      let s = really_input_string ic 4 in
      Int32.to_int (String.get_int32_le s 0) land 0xffffffff)

(* SIDX1-3 headers: retired containers, refused by name rather than parsed
   as damaged SIDX4 bytes *)
let legacy_magics = [ "SIDX1\n"; "SIDX2\n"; "SIDX3\n" ]

(* O(1) open: map the file, verify the 72-byte footer and 8-byte header
   CRCs, validate the region table.  No key table is built; finds
   binary-search the mapped key index, and the body region CRCs verify
   lazily on first touch.  An armed [builder.load.read=short:N] shows only
   the first N bytes — a torn read the checks below must reject. *)
let open_mapped path =
  Failpoint.hit "builder.load.map";
  let map = Mmap.map_ro path in
  let map =
    Bigarray.Array1.sub map 0
      (Failpoint.read_len "builder.load.read" (Bigarray.Array1.dim map))
  in
  let len = Bigarray.Array1.dim map in
  let corrupt offset what = Si_error.raise_corrupt ~path ~offset what in
  let mlen = String.length magic in
  if len >= mlen && List.mem (Mmap.bytes_at map 0 mlen) legacy_magics then
    Si_error.raise_schema ~path
      (Printf.sprintf "retired %s container; only SIDX4 is read — rebuild the prefix"
         (String.trim (Mmap.bytes_at map 0 mlen)));
  if len < header_len + footer_len then
    corrupt len
      (Printf.sprintf "truncated: %d bytes cannot hold an SIDX4 header and footer"
         len);
  if not (String.equal (Mmap.bytes_at map (len - 4) 4) footer_magic) then
    corrupt (len - 4) "missing SIDX4 footer magic";
  if Crc32.bigsub map (len - footer_len) (footer_len - 8) <> digest_at map then
    corrupt (len - footer_len) "footer checksum mismatch";
  let nkeys = Mmap.u64 ~path map (len - 72) in
  let kblock = Mmap.u64 ~path map (len - 64) in
  let kindex_len = Mmap.u64 ~path map (len - 56) in
  let keydir_len = Mmap.u64 ~path map (len - 48) in
  let postings_len = Mmap.u64 ~path map (len - 40) in
  if kblock < 1 then corrupt (len - 64) "key-block size must be >= 1";
  if nkeys > keydir_len then corrupt (len - 72) "key count exceeds key directory size";
  let nblocks = (nkeys + kblock - 1) / kblock in
  if kindex_len <> 16 * nblocks
     || header_len + kindex_len + keydir_len + postings_len + footer_len <> len
  then
    corrupt (len - 72)
      (Printf.sprintf
         "recorded regions (%d keys, %d + %d + %d bytes) disagree with the \
          %d-byte file"
         nkeys kindex_len keydir_len postings_len len);
  if not (String.equal (Mmap.bytes_at map 0 mlen) magic) then
    corrupt 0 "bad magic (want SIDX4)";
  if Crc32.bigsub map 0 header_len <> Mmap.u32 map (len - 24) then
    corrupt 0 "header checksum mismatch";
  let scheme = scheme_of_byte path (Bigarray.Array1.get map 6) in
  let mss = Char.code (Bigarray.Array1.get map 7) in
  if mss < 1 then corrupt 7 "mss byte must be >= 1";
  {
    scheme;
    mss;
    table = Hashtbl.create 1;
    (* trees/nodes/postings are not stored (Si restores them from .meta);
       bytes is the mapped file size *)
    stats = { trees = 0; nodes = 0; keys = nkeys; postings = 0; bytes = len };
    origin = path;
    mapped =
      Some
        {
          map;
          msrc = Coding.map_src map;
          m_nkeys = nkeys;
          kblock;
          kindex_off = header_len;
          kindex_len;
          keydir_off = header_len + kindex_len;
          keydir_len;
          post_off = header_len + kindex_len + keydir_len;
          post_len = postings_len;
          crc_kindex = Mmap.u32 map (len - 20);
          crc_keydir = Mmap.u32 map (len - 16);
          crc_postings = Mmap.u32 map (len - 12);
          dir_verified = false;
          post_verified = false;
          resolve = None;
        };
  }

let load path =
  match open_mapped path with
  | t -> Ok t
  | exception Si_error.Error e -> Error e
  | exception Sys_error what -> Error (Si_error.Io { path; what })
  (* safety net: no decoding slip may escape as a crash *)
  | exception Coding.Malformed { offset; what } ->
      Error (Si_error.Corrupt { path; offset; what })
  | exception Invalid_argument what ->
      Error (Si_error.Corrupt { path; offset = 0; what = "malformed: " ^ what })
  | exception Failure what -> Error (Si_error.Corrupt { path; offset = 0; what })

(* The [.meta] cross-check: [crc] is the footer digest the prefix was
   published with — or, in a [.meta] written before the digest, the CRC-32
   of the whole file, which costs one pass over the mapping to confirm. *)
let matches_crc (t : t) crc =
  match t.mapped with
  | None -> true
  | Some m ->
      crc = digest_at m.map
      || crc = Crc32.bigsub m.map 0 (Bigarray.Array1.dim m.map)

(* ---- mapped introspection ------------------------------------------------ *)

type region_state = { rname : string; rbytes : int; rverified : bool }

type mapped_stats = {
  mapped_bytes : int;
  resident_estimate : int;
  regions : region_state list;
}

let is_mapped (t : t) = t.mapped <> None

let mapped_stats (t : t) =
  match t.mapped with
  | None -> None
  | Some m ->
      let regions =
        [
          { rname = "kindex"; rbytes = m.kindex_len; rverified = m.dir_verified };
          { rname = "keydir"; rbytes = m.keydir_len; rverified = m.dir_verified };
          { rname = "postings"; rbytes = m.post_len; rverified = m.post_verified };
        ]
      in
      (* a CRC pass touches every page of its region, so verified regions
         count as resident in full; unverified ones only cost the pages a
         find or decode actually walked — approximated as zero *)
      let resident =
        header_len + footer_len
        + List.fold_left (fun a r -> if r.rverified then a + r.rbytes else a) 0 regions
      in
      Some
        {
          mapped_bytes = Bigarray.Array1.dim m.map;
          resident_estimate = resident;
          regions;
        }

let verify_mapped (t : t) =
  Si_error.guard @@ fun () ->
  match t.mapped with
  | None -> ()
  | Some m ->
      ensure_dir_verified t m;
      ensure_post_verified t m

(* ---- incremental scrub support (DESIGN.md §15) --------------------------- *)

let scrub_regions (t : t) =
  match t.mapped with
  | None -> []
  | Some m ->
      [
        ("kindex", m.kindex_off, m.kindex_len, m.crc_kindex);
        ("keydir", m.keydir_off, m.keydir_len, m.crc_keydir);
        ("postings", m.post_off, m.post_len, m.crc_postings);
      ]

let scrub_feed (t : t) crc ~off ~len =
  match t.mapped with
  | None -> crc
  | Some m -> Crc32.feed_bigsub crc m.map off len

let scrub_commit (t : t) which =
  match t.mapped with
  | None -> ()
  | Some m -> (
      match which with
      | `Dir -> m.dir_verified <- true
      | `Postings -> m.post_verified <- true)

let scrub_slots (t : t) =
  match t.mapped with
  | None -> []
  | Some m ->
      let bad = ref [] in
      mapped_iter_slots t m (fun key slot ->
          match decode_slot_unchecked t key slot with
          | (_ : Coding.posting) -> ()
          | exception Si_error.Error _ -> bad := key :: !bad);
      List.rev !bad

let set_resolve (t : t) resolve =
  match t.mapped with None -> () | Some m -> m.resolve <- Some resolve
