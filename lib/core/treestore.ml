open Si_treebank

(* Zero-copy corpus store: the sibling [.trees] file of an SIDX4 prefix.
   Trees are laid out in contiguous DFS order — per tree a node count, the
   preorder label ids, and a balanced-parentheses bitmap (2 bits per node:
   1 on entering a node, 0 on leaving).  (pre, post, level) and the
   children lists are fully determined by the bitmap, so one scan of 2n
   bits reconstructs exactly what {!Annotated.of_tree} builds from a Penn
   parse — without parsing any bracketing.

   Layout:

     header    "SITR1\n" 0 0                                     (8 bytes)
     offsets   ntrees x u64le — tree record offset, relative to the trees
               region start (tid -> record is one array read: O(1) slicing)
     trees     per tree: varint n | n x varint stored-label-id | BP bitmap,
               ceil(2n/8) bytes, LSB-first within each byte
     footer    u64le ntrees | u64le offsets_len | u64le trees_len
               u32le crc32(header) | u32le crc32(offsets) | u32le crc32(trees)
               u32le crc32(footer before this field) | "ST4F"   (44 bytes)

   Open cost is O(1): map, verify the footer CRC (44 bytes) and the header
   CRC (8 bytes), validate that the recorded regions tile the file.  The
   offsets and trees CRCs are verified lazily, on the first [get], and
   trees materialize on demand into a memo array.  Label ids are the
   *stored* id space of the sibling [.labels] file; the caller provides
   [relabel] to translate them into live interned ids (and to reject ids
   the label table does not cover). *)

let magic = "SITR1\n\000\000"
let header_len = 8
let footer_magic = "ST4F"
let footer_len = 44

type t = {
  map : Mmap.bigstring;
  src : Coding.src;
  path : string;
  ntrees : int;
  offsets_off : int;
  offsets_len : int;
  trees_off : int;
  trees_len : int;
  crc_offsets : int;
  crc_trees : int;
  mutable body_verified : bool;
      (* offsets + trees CRCs checked; benign to race — verification is
         idempotent and the flag is only ever flipped to [true] *)
  relabel : int -> int;
  memo : Annotated.t option array;
      (* per-tid materialization memo; concurrent domains may decode the
         same tree twice and one write wins — both values are equal *)
}

(* ---- write side --------------------------------------------------------- *)

let write_tree buf ~relabel (d : Annotated.t) =
  let n = Annotated.size d in
  Si_subtree.Varint.write buf n;
  Array.iter (fun l -> Si_subtree.Varint.write buf (relabel l)) d.Annotated.label;
  let nbits = 2 * n in
  let bytes = Bytes.make ((nbits + 7) / 8) '\000' in
  let bit = ref 0 in
  let put b =
    if b then begin
      let i = !bit in
      Bytes.unsafe_set bytes (i lsr 3)
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes (i lsr 3)) lor (1 lsl (i land 7))))
    end;
    incr bit
  in
  let rec walk v =
    put true;
    List.iter walk d.Annotated.children.(v);
    put false
  in
  walk 0;
  assert (!bit = nbits);
  Buffer.add_bytes buf bytes

let save path ~relabel (docs : Annotated.t array) =
  let offsets = Buffer.create (8 * Array.length docs) in
  let trees = Buffer.create 65536 in
  Array.iter
    (fun d ->
      Buffer.add_int64_le offsets (Int64.of_int (Buffer.length trees));
      write_tree trees ~relabel d)
    docs;
  let offsets = Buffer.contents offsets in
  let trees = Buffer.contents trees in
  let footer = Buffer.create footer_len in
  Buffer.add_int64_le footer (Int64.of_int (Array.length docs));
  Buffer.add_int64_le footer (Int64.of_int (String.length offsets));
  Buffer.add_int64_le footer (Int64.of_int (String.length trees));
  Buffer.add_int32_le footer (Int32.of_int (Crc32.string magic));
  Buffer.add_int32_le footer (Int32.of_int (Crc32.string offsets));
  Buffer.add_int32_le footer (Int32.of_int (Crc32.string trees));
  Buffer.add_int32_le footer
    (Int32.of_int (Crc32.string (Buffer.contents footer)));
  Buffer.add_string footer footer_magic;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_string oc offsets;
      output_string oc trees;
      Buffer.output_buffer oc footer;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

(* ---- read side ---------------------------------------------------------- *)

let open_ ~relabel path =
  let map = Mmap.map_ro path in
  let len = Bigarray.Array1.dim map in
  let corrupt offset what = Si_error.raise_corrupt ~path ~offset what in
  if len < header_len + footer_len then
    corrupt len (Printf.sprintf "truncated: %d bytes cannot hold a corpus store" len);
  if not (String.equal (Mmap.bytes_at map (len - 4) 4) footer_magic) then
    corrupt (len - 4) "missing corpus-store footer magic";
  if Crc32.bigsub map (len - footer_len) (footer_len - 8) <> Mmap.u32 map (len - 8)
  then corrupt (len - footer_len) "corpus-store footer checksum mismatch";
  let ntrees = Mmap.u64 ~path map (len - 44) in
  let offsets_len = Mmap.u64 ~path map (len - 36) in
  let trees_len = Mmap.u64 ~path map (len - 28) in
  if
    offsets_len <> 8 * ntrees
    || header_len + offsets_len + trees_len + footer_len <> len
  then
    corrupt (len - 44)
      (Printf.sprintf
         "recorded regions (%d trees, %d + %d bytes) disagree with the %d-byte file"
         ntrees offsets_len trees_len len);
  if not (String.equal (Mmap.bytes_at map 0 header_len) magic) then
    corrupt 0 "bad corpus-store magic (want SITR1)";
  if Crc32.bigsub map 0 header_len <> Mmap.u32 map (len - 20) then
    corrupt 0 "corpus-store header checksum mismatch";
  {
    map;
    src = Coding.map_src map;
    path;
    ntrees;
    offsets_off = header_len;
    offsets_len;
    trees_off = header_len + offsets_len;
    trees_len;
    crc_offsets = Mmap.u32 map (len - 16);
    crc_trees = Mmap.u32 map (len - 12);
    body_verified = false;
    relabel;
    memo = Array.make ntrees None;
  }

let length t = t.ntrees
let mapped_bytes t = Bigarray.Array1.dim t.map
let body_verified t = t.body_verified

let verify t =
  if not t.body_verified then begin
    if Crc32.bigsub t.map t.offsets_off t.offsets_len <> t.crc_offsets then
      Si_error.raise_corrupt ~path:t.path ~offset:t.offsets_off
        "corpus-store offsets checksum mismatch";
    if Crc32.bigsub t.map t.trees_off t.trees_len <> t.crc_trees then
      Si_error.raise_corrupt ~path:t.path ~offset:t.trees_off
        "corpus-store trees checksum mismatch";
    t.body_verified <- true
  end

let crc_state t =
  [
    ("offsets", t.offsets_len, t.body_verified);
    ("trees", t.trees_len, t.body_verified);
  ]

(* ---- incremental scrub support (DESIGN.md §15) --------------------------- *)

let scrub_regions t =
  [
    ("ts_offsets", t.offsets_off, t.offsets_len, t.crc_offsets);
    ("ts_trees", t.trees_off, t.trees_len, t.crc_trees);
  ]

let scrub_feed t crc ~off ~len = Crc32.feed_bigsub crc t.map off len
let scrub_commit t = t.body_verified <- true

(* Rebuild one tree from its DFS record.  The CRC has vouched for the bytes
   by the time we are here, but decoding stays fully defensive anyway: the
   store may have been *written* by a corrupt process, and the fuzzer feeds
   this path hostile bytes with refitted checksums. *)
let decode t tid =
  let corrupt offset what = Si_error.raise_corrupt ~path:t.path ~offset what in
  let toff = Mmap.u64 ~path:t.path t.map (t.offsets_off + (8 * tid)) in
  if toff >= t.trees_len then corrupt (t.offsets_off + (8 * tid)) "tree record offset outside the trees region";
  let base = t.trees_off + toff in
  let limit = t.trees_off + t.trees_len in
  let n, o = Coding.checked_varint ~limit t.src base in
  if n < 1 then corrupt base "tree with no nodes";
  (* labels cost >= 1 byte each and the bitmap 2n bits: bound before allocating *)
  if n > limit - o then corrupt o "node count exceeds the tree record";
  let label = Array.make n 0 in
  let o = ref o in
  for v = 0 to n - 1 do
    let sid, o' = Coding.checked_varint ~limit t.src !o in
    label.(v) <- t.relabel sid;
    o := o'
  done;
  let bp_off = !o in
  let bp_bytes = ((2 * n) + 7) / 8 in
  if bp_bytes > limit - bp_off then corrupt bp_off "BP bitmap overruns the trees region";
  let children_rev = Array.make n [] in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let next_pre = ref 0 in
  for i = 0 to (2 * n) - 1 do
    let byte = Char.code (Coding.src_get t.src (bp_off + (i lsr 3))) in
    if (byte lsr (i land 7)) land 1 = 1 then begin
      if !next_pre >= n then corrupt bp_off "BP bitmap opens more nodes than recorded";
      let v = !next_pre in
      incr next_pre;
      if !sp > 0 then begin
        let p = stack.(!sp - 1) in
        children_rev.(p) <- v :: children_rev.(p)
      end
      else if v > 0 then corrupt bp_off "BP bitmap encodes a forest, not a tree";
      stack.(!sp) <- v;
      incr sp
    end
    else begin
      if !sp = 0 then corrupt bp_off "unbalanced BP bitmap (close without open)";
      decr sp
    end
  done;
  if !sp <> 0 || !next_pre <> n then corrupt bp_off "unbalanced BP bitmap";
  (* node ids are pre-order ranks, so rebuilding the [Tree.t] and running
     it through [Annotated.of_tree] reproduces exactly the annotation a
     Penn parse of the original bracketing would — one constructor, one
     set of (pre, post, level) invariants *)
  let rec subtree v =
    {
      Tree.label = label.(v);
      children = List.rev_map subtree children_rev.(v);
    }
  in
  Annotated.of_tree (subtree 0)

(* The scrub's per-tree probe: a bare defensive decode, skipping memo and
   the whole-region CRC gate, so damage inside a CRC-failing trees region
   localizes to tids instead of poisoning the whole store. *)
let scrub_decode t tid =
  if tid < 0 || tid >= t.ntrees then
    Error
      (Si_error.Corrupt
         {
           path = t.path;
           offset = 0;
           what =
             Printf.sprintf "tree id %d outside the corpus store of %d trees"
               tid t.ntrees;
         })
  else
    match decode t tid with
    | (_ : Annotated.t) -> Ok ()
    | exception Si_error.Error e -> Error e
    | exception Coding.Malformed { offset; what } ->
        Error (Si_error.Corrupt { path = t.path; offset; what })

let get t tid =
  if tid < 0 || tid >= t.ntrees then
    Si_error.raise_corrupt ~path:t.path ~offset:0
      (Printf.sprintf "tree id %d outside the corpus store of %d trees" tid
         t.ntrees);
  match t.memo.(tid) with
  | Some d -> d
  | None ->
      verify t;
      let d =
        try decode t tid
        with Coding.Malformed { offset; what } ->
          Si_error.raise_corrupt ~path:t.path ~offset what
      in
      t.memo.(tid) <- Some d;
      d
