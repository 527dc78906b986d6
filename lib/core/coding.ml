open Si_subtree

type scheme = Filter | Interval | Root_split

let scheme_to_string = function
  | Filter -> "filter"
  | Interval -> "interval"
  | Root_split -> "root-split"

let scheme_of_string = function
  | "filter" -> Ok Filter
  | "interval" -> Ok Interval
  | "root-split" | "rs" -> Ok Root_split
  | s -> Error (Printf.sprintf "unknown scheme %S (want filter|interval|root-split)" s)

type interval = { pre : int; post : int; level : int }

let pp_interval ppf i = Format.fprintf ppf "(%d,%d,%d)" i.pre i.post i.level

type posting =
  | Filter_p of int array
  | Interval_p of (int * interval array) array
  | Root_p of (int * interval) array

let entries = function
  | Filter_p a -> Array.length a
  | Interval_p a -> Array.length a
  | Root_p a -> Array.length a

let tid_at p i =
  match p with
  | Filter_p a -> a.(i)
  | Root_p a -> fst a.(i)
  | Interval_p a -> fst a.(i)

(* decoded heap footprint estimate, for the cache's byte budget: per-entry
   words (tuples, interval records, per-instance arrays) plus array slots *)
let heap_bytes = function
  | Filter_p a -> 24 + (8 * Array.length a)
  | Root_p a -> 24 + (72 * Array.length a)
  | Interval_p a ->
      Array.fold_left (fun acc (_, ivs) -> acc + 40 + (40 * Array.length ivs)) 24 a

(* ---- byte sources ------------------------------------------------------- *)

(* Every decode path reads through [src]: either an in-heap string (the
   postings of an in-memory build) or a memory-mapped byte view (an opened
   SIDX4 file, consumed in place).  The per-byte loops are specialised per
   constructor so the string hot path keeps its exact pre-mmap code
   shape. *)

type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type src = Str of string | Map of bigstring

let str s = Str s
let map_src m = Map m

let src_length = function
  | Str s -> String.length s
  | Map m -> Bigarray.Array1.dim m

let src_get src i =
  match src with
  | Str s -> String.unsafe_get s i
  | Map m -> Bigarray.Array1.unsafe_get m i

let src_sub src off len =
  if off < 0 || len < 0 || off > src_length src - len then
    invalid_arg "Coding.src_sub";
  match src with
  | Str s -> String.sub s off len
  | Map m -> String.init len (fun i -> Bigarray.Array1.unsafe_get m (off + i))

(* ---- defensive primitives ---------------------------------------------- *)

exception Malformed of { offset : int; what : string }

let malformed offset what = raise (Malformed { offset; what })

(* Like [Varint.read] but bounded by an explicit [limit] (the end of the
   posting's byte slice, not of the whole backing buffer — a decode must
   never stray into the neighbouring posting) and failing with an offset. *)
let checked_varint_str ~limit s off =
  let limit = min limit (String.length s) in
  let rec go o shift acc =
    if o >= limit then malformed o "truncated varint";
    if shift > 56 then malformed o "overlong varint";
    let b = Char.code (String.unsafe_get s o) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then malformed o "varint overflow";
    if b land 0x80 = 0 then (acc, o + 1) else go (o + 1) (shift + 7) acc
  in
  if off < 0 then malformed off "negative offset";
  go off 0 0

let checked_varint_map ~limit (m : bigstring) off =
  let limit = min limit (Bigarray.Array1.dim m) in
  let rec go o shift acc =
    if o >= limit then malformed o "truncated varint";
    if shift > 56 then malformed o "overlong varint";
    let b = Char.code (Bigarray.Array1.unsafe_get m o) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then malformed o "varint overflow";
    if b land 0x80 = 0 then (acc, o + 1) else go (o + 1) (shift + 7) acc
  in
  if off < 0 then malformed off "negative offset";
  go off 0 0

let checked_varint ~limit src off =
  match src with
  | Str s -> checked_varint_str ~limit s off
  | Map m -> checked_varint_map ~limit m off

(* ---- pack-time validation ---------------------------------------------- *)

let pack_error what = invalid_arg ("Coding.pack: " ^ what)

let check_interval what iv =
  if iv.pre < 0 || iv.level < 0 then
    pack_error (Printf.sprintf "%s: negative pre/level %d/%d" what iv.pre iv.level);
  (* size - 1 = post + level - pre; >= 0 by the pre/post/level identity *)
  if iv.post + iv.level - iv.pre < 0 then
    pack_error
      (Printf.sprintf "%s: interval (%d,%d,%d) violates post = pre + size-1 - level"
         what iv.pre iv.post iv.level)

(* The delta codings below silently encode garbage if entries ever arrive
   unsorted, so every packer validates the whole posting first and fails
   loudly instead of producing bytes that decode to a different posting. *)
let validate = function
  | Filter_p tids ->
      let prev = ref (-1) in
      Array.iter
        (fun tid ->
          if tid <= !prev then
            pack_error
              (Printf.sprintf "filter tids not strictly increasing (%d after %d)" tid
                 !prev);
          if tid < 0 then pack_error "negative tid";
          prev := tid)
        tids
  | Root_p a ->
      let prev_tid = ref (-1) in
      let prev_pre = ref 0 in
      Array.iter
        (fun (tid, iv) ->
          if tid < max !prev_tid 0 then
            pack_error
              (Printf.sprintf "root entries not sorted by tid (%d after %d)" tid
                 !prev_tid);
          check_interval "root entry" iv;
          if !prev_tid = tid && iv.pre < !prev_pre then
            pack_error
              (Printf.sprintf
                 "root entries not sorted by pre within tid %d (%d after %d)" tid
                 iv.pre !prev_pre);
          prev_tid := tid;
          prev_pre := iv.pre)
        a
  | Interval_p a ->
      let prev_tid = ref (-1) in
      let prev_pre = ref 0 in
      Array.iter
        (fun (tid, ivs) ->
          if Array.length ivs = 0 then pack_error "interval entry with no nodes";
          if tid < max !prev_tid 0 then
            pack_error
              (Printf.sprintf "interval entries not sorted by tid (%d after %d)" tid
                 !prev_tid);
          let root = ivs.(0) in
          check_interval "instance root" root;
          if !prev_tid = tid && root.pre < !prev_pre then
            pack_error
              (Printf.sprintf
                 "interval entries not sorted by root pre within tid %d (%d after %d)"
                 tid root.pre !prev_pre);
          Array.iteri
            (fun k iv ->
              if k > 0 then begin
                check_interval "instance node" iv;
                (* descendant of the root: both offsets >= 0 *)
                if iv.pre < root.pre || iv.level < root.level then
                  pack_error
                    (Printf.sprintf
                       "instance node (%d,%d,%d) not a descendant of its root (%d,%d,%d)"
                       iv.pre iv.post iv.level root.pre root.post root.level)
              end)
            ivs;
          prev_tid := tid;
          prev_pre := root.pre)
        a

(* ---- entry-slice codec (the body of every v3 block) --------------------- *)

(* The packing exploits two corpus invariants:
   - post = pre + size - 1 - level for every node, so each interval stores
     the (small) subtree size instead of the (corpus-wide) postorder rank;
   - every non-root node of an instance is a strict descendant of the
     instance root, so its pre/level pack as offsets from the root's.
   Entry tids stay delta-coded; within a tid run the root pre is also
   delta-coded against the previous entry (roots arrive in pre-order).

   A slice [lo, lo+n) always encodes its first entry with an absolute tid
   (and absolute root pre), so every slice is independently decodable —
   this is what makes fixed-size blocks with a skip table possible. *)

let pack_size buf iv = Varint.write buf (iv.post + iv.level - iv.pre)

(* encode entries [lo, lo+n); assumes [validate] has run *)
let pack_slice buf p lo n =
  match p with
  | Filter_p tids ->
      let prev = ref (-1) in
      for i = lo to lo + n - 1 do
        let tid = tids.(i) in
        Varint.write buf (tid - max !prev 0);
        prev := tid
      done
  | Root_p a ->
      let prev_tid = ref (-1) in
      let prev_pre = ref 0 in
      for i = lo to lo + n - 1 do
        let tid, iv = a.(i) in
        Varint.write buf (tid - max !prev_tid 0);
        let base = if !prev_tid = tid then !prev_pre else 0 in
        Varint.write buf (iv.pre - base);
        pack_size buf iv;
        Varint.write buf iv.level;
        prev_tid := tid;
        prev_pre := iv.pre
      done
  | Interval_p a ->
      let prev_tid = ref (-1) in
      let prev_pre = ref 0 in
      for i = lo to lo + n - 1 do
        let tid, ivs = a.(i) in
        let root = ivs.(0) in
        Varint.write buf (tid - max !prev_tid 0);
        let base = if !prev_tid = tid then !prev_pre else 0 in
        Varint.write buf (root.pre - base);
        pack_size buf root;
        Varint.write buf root.level;
        Array.iteri
          (fun k iv ->
            if k > 0 then begin
              Varint.write buf (iv.pre - root.pre);
              pack_size buf iv;
              Varint.write buf (iv.level - root.level)
            end)
          ivs;
        prev_tid := tid;
        prev_pre := root.pre
      done

(* Decoding trusts nothing: every varint is bounds-checked against [limit],
   the entry count is validated against the remaining bytes *before* any
   allocation (each entry costs at least [per_entry] bytes), and the delta
   accumulators are explicit loops — [Array.init] applies its function in
   unspecified order, which would scramble sequential delta decoding. *)
let check_count ~count ~per_entry ~remaining off =
  if count < 0 || per_entry <= 0 || count > remaining / per_entry then
    malformed off
      (Printf.sprintf "entry count %d exceeds %d remaining bytes" count remaining)

let dummy_interval = { pre = 0; post = 0; level = 0 }

(* decode [count] slice-encoded entries; inverse of [pack_slice] *)
let unpack_slice scheme ~key_size ~count ~limit s off =
  check_count ~count
    ~per_entry:
      (match scheme with
      | Filter -> 1
      | Root_split -> 4
      | Interval ->
          if key_size < 1 then malformed off "key size must be >= 1";
          4 + (3 * (key_size - 1)))
    ~remaining:(limit - off) off;
  match scheme with
  | Filter ->
      let tids = Array.make count 0 in
      let off = ref off in
      let prev = ref 0 in
      for i = 0 to count - 1 do
        let d, o = checked_varint ~limit s !off in
        if i > 0 && d = 0 then malformed !off "duplicate tid in filter posting";
        let tid = !prev + d in
        if tid < 0 then malformed !off "tid overflow";
        tids.(i) <- tid;
        prev := tid;
        off := o
      done;
      (Filter_p tids, !off)
  | Root_split ->
      let a = Array.make count (0, dummy_interval) in
      let off = ref off in
      let prev_tid = ref 0 in
      let prev_pre = ref 0 in
      for i = 0 to count - 1 do
        let at = !off in
        let dtid, o = checked_varint ~limit s at in
        let tid = if i = 0 then dtid else !prev_tid + dtid in
        let base = if i > 0 && dtid = 0 then !prev_pre else 0 in
        let dpre, o = checked_varint ~limit s o in
        let pre = base + dpre in
        let s1, o = checked_varint ~limit s o in
        let level, o = checked_varint ~limit s o in
        let post = pre + s1 - level in
        if tid < 0 || pre < 0 || post < 0 then
          malformed at "root entry out of range";
        a.(i) <- (tid, { pre; post; level });
        prev_tid := tid;
        prev_pre := pre;
        off := o
      done;
      (Root_p a, !off)
  | Interval ->
      let a = Array.make count (0, [||]) in
      let off = ref off in
      let prev_tid = ref 0 in
      let prev_pre = ref 0 in
      for i = 0 to count - 1 do
        let at = !off in
        let dtid, o = checked_varint ~limit s at in
        let tid = if i = 0 then dtid else !prev_tid + dtid in
        let base = if i > 0 && dtid = 0 then !prev_pre else 0 in
        let dpre, o = checked_varint ~limit s o in
        let root_pre = base + dpre in
        let s1, o = checked_varint ~limit s o in
        let root_level, o = checked_varint ~limit s o in
        let root_post = root_pre + s1 - root_level in
        if tid < 0 || root_pre < 0 || root_post < 0 then
          malformed at "instance root out of range";
        let root = { pre = root_pre; post = root_post; level = root_level } in
        let ivs = Array.make key_size root in
        off := o;
        for k = 1 to key_size - 1 do
          let dpre, o = checked_varint ~limit s !off in
          let pre = root_pre + dpre in
          let s1, o = checked_varint ~limit s o in
          let dlevel, o = checked_varint ~limit s o in
          let level = root_level + dlevel in
          let post = pre + s1 - level in
          if post < 0 then malformed !off "instance node out of range";
          ivs.(k) <- { pre; post; level };
          off := o
        done;
        a.(i) <- (tid, ivs);
        prev_tid := tid;
        prev_pre := root_pre
      done;
      (Interval_p a, !off)

let clamp_limit limit s =
  match limit with None -> src_length s | Some l -> min l (src_length s)

(* ---- v3 block container ------------------------------------------------ *)

(* A v3 posting is a container around slice-encoded entries:

     varint  (count << 1) | blocked

   blocked = 0: the slice encoding of all [count] entries follows directly
   — the posting is one implicit block.

   blocked = 1 (only when count > block size B):

     varint  B                 entries per block (last block: the remainder)
     skip table, ceil(count/B) records:
       varint  dtid            first tid of the block, delta vs the previous
                               block's first tid (block 0: absolute)
       varint  blen            byte length of the block body
     block bodies, concatenated; each an independently decodable slice

   The skip table lets a reader jump to the block covering a target tid and
   decode only that block; B is stored, so the build-time constant can
   change without a format break.  Readers validate: B >= 1, a blocked
   posting really exceeds one block, skip records fit the remaining bytes,
   block lengths tile the body region exactly, and (at block decode) the
   body's first tid equals the skip table's and the body fills its recorded
   length. *)

let default_block_entries = 128

type block = { first_tid : int; boff : int; blen : int; bentries : int }

let pack_v3 ?(block_entries = default_block_entries) buf p =
  if block_entries < 1 then invalid_arg "Coding.pack_v3: block_entries must be >= 1";
  validate p;
  let count = entries p in
  if count <= block_entries then begin
    Varint.write buf (count lsl 1);
    pack_slice buf p 0 count
  end
  else begin
    Varint.write buf ((count lsl 1) lor 1);
    Varint.write buf block_entries;
    let nblocks = (count + block_entries - 1) / block_entries in
    let bodies =
      Array.init nblocks (fun b ->
          let lo = b * block_entries in
          let scratch = Buffer.create 512 in
          pack_slice scratch p lo (min block_entries (count - lo));
          Buffer.contents scratch)
    in
    let prev = ref 0 in
    Array.iteri
      (fun b body ->
        let ft = tid_at p (b * block_entries) in
        Varint.write buf (ft - !prev);
        prev := ft;
        Varint.write buf (String.length body))
      bodies;
    Array.iter (Buffer.add_string buf) bodies
  end

let dummy_block = { first_tid = -1; boff = 0; blen = 0; bentries = 0 }

let v3_layout scheme ?limit s off =
  let limit = clamp_limit limit s in
  let hdr, off = checked_varint ~limit s off in
  let count = hdr lsr 1 in
  if hdr land 1 = 0 then
    (count, [| { first_tid = -1; boff = off; blen = limit - off; bentries = count } |])
  else begin
    let at = off in
    let be, off = checked_varint ~limit s off in
    if be < 1 then malformed at "block size must be >= 1";
    if count <= be then malformed at "blocked posting does not exceed one block";
    let nblocks = (count + be - 1) / be in
    (* each skip record costs at least 2 bytes: bound before allocating *)
    if nblocks > (limit - off) / 2 then
      malformed off "skip table exceeds the remaining bytes";
    let blocks = Array.make nblocks dummy_block in
    let off = ref off in
    let prev_tid = ref 0 in
    let body_len = ref 0 in
    for b = 0 to nblocks - 1 do
      let at = !off in
      let dtid, o = checked_varint ~limit s at in
      let blen, o = checked_varint ~limit s o in
      if blen < 1 then malformed at "zero-length block";
      if b > 0 && dtid = 0 && scheme = Filter then
        malformed at "filter block first tids not strictly increasing";
      let first_tid = !prev_tid + dtid in
      if first_tid < 0 then malformed at "block first tid overflow";
      let bentries = if b = nblocks - 1 then count - ((nblocks - 1) * be) else be in
      blocks.(b) <- { first_tid; boff = 0; blen; bentries };
      prev_tid := first_tid;
      body_len := !body_len + blen;
      if !body_len < 0 || !body_len > limit - !off then
        malformed at "block lengths exceed the posting bytes";
      off := o
    done;
    if !body_len <> limit - !off then
      malformed !off "block lengths do not tile the posting bytes";
    let pos = ref !off in
    Array.iteri
      (fun b blk ->
        blocks.(b) <- { blk with boff = !pos };
        pos := !pos + blk.blen)
      blocks;
    (count, blocks)
  end

let unpack_block scheme ~key_size s (b : block) =
  let finish = b.boff + b.blen in
  let p, off = unpack_slice scheme ~key_size ~count:b.bentries ~limit:finish s b.boff in
  if off <> finish then malformed off "block shorter than its recorded length";
  if b.first_tid >= 0 && b.bentries > 0 && tid_at p 0 <> b.first_tid then
    malformed b.boff "block first tid disagrees with the skip table";
  p

let concat_parts scheme ~count blocks (parts : posting array) =
  (* cross-block tid monotonicity: the within-block invariants hold per
     slice, so the boundaries are the only place corrupt bytes could break
     the sortedness the evaluators rely on *)
  let last p = tid_at p (entries p - 1) in
  Array.iteri
    (fun b part ->
      if b > 0 then begin
        let prev = last parts.(b - 1) in
        let ok =
          match scheme with
          | Filter -> tid_at part 0 > prev
          | Interval | Root_split -> tid_at part 0 >= prev
        in
        if not ok then
          malformed blocks.(b).boff "block tids overlap the previous block"
      end)
    parts;
  match scheme with
  | Filter ->
      let arrs =
        Array.map (function Filter_p a -> a | _ -> assert false) parts
      in
      let out = Array.concat (Array.to_list arrs) in
      assert (Array.length out = count);
      Filter_p out
  | Root_split ->
      let arrs = Array.map (function Root_p a -> a | _ -> assert false) parts in
      let out = Array.concat (Array.to_list arrs) in
      assert (Array.length out = count);
      Root_p out
  | Interval ->
      let arrs =
        Array.map (function Interval_p a -> a | _ -> assert false) parts
      in
      let out = Array.concat (Array.to_list arrs) in
      assert (Array.length out = count);
      Interval_p out

let unpack_v3 scheme ~key_size ?limit s off =
  let limit = clamp_limit limit s in
  let count, blocks = v3_layout scheme ~limit s off in
  let parts = Array.map (unpack_block scheme ~key_size s) blocks in
  let finish =
    let b = blocks.(Array.length blocks - 1) in
    b.boff + b.blen
  in
  if Array.length parts = 1 then (parts.(0), finish)
  else (concat_parts scheme ~count blocks parts, finish)

(* ---- SIDX4 interval slices: structure shared with the corpus store ----- *)

(* The v3 interval slice spends three varints per node (pre, size, level)
   even though the corpus already knows every node's (pre, post, level).  In
   an SIDX4 file the tree structure lives once, succinctly, in the mapped
   corpus store, so an interval posting only needs to *name* nodes: tid plus
   preorder ranks.  Decoding takes a [resolve] closure (tid -> pre ->
   interval, backed by the store) that reconstructs the exact intervals the
   v3 coding would have carried — byte-identical query results, ~3x fewer
   posting bytes per node.

   Container framing (header, skip table, blocks) is exactly the v3 layout,
   so [v3_layout] parses v4 postings unchanged; only the slice bytes differ:

     entry:  varint dtid                    as in v3
             varint dpre                    root pre, delta within a tid run
             (key_size - 1) x varint dpre   node pre - root pre

   Filter and root-split postings gain nothing from resolution (they carry
   no redundant structure), so SIDX4 stores them as plain v3 bytes. *)

let pack_v4_slice buf p lo n =
  match p with
  | Filter_p _ | Root_p _ -> invalid_arg "Coding.pack_v4: interval postings only"
  | Interval_p a ->
      let prev_tid = ref (-1) in
      let prev_pre = ref 0 in
      for i = lo to lo + n - 1 do
        let tid, ivs = a.(i) in
        let root = ivs.(0) in
        Varint.write buf (tid - max !prev_tid 0);
        let base = if !prev_tid = tid then !prev_pre else 0 in
        Varint.write buf (root.pre - base);
        Array.iteri
          (fun k iv -> if k > 0 then Varint.write buf (iv.pre - root.pre))
          ivs;
        prev_tid := tid;
        prev_pre := root.pre
      done

let pack_v4 ?(block_entries = default_block_entries) buf p =
  if block_entries < 1 then invalid_arg "Coding.pack_v4: block_entries must be >= 1";
  validate p;
  let count = entries p in
  if count <= block_entries then begin
    Varint.write buf (count lsl 1);
    pack_v4_slice buf p 0 count
  end
  else begin
    Varint.write buf ((count lsl 1) lor 1);
    Varint.write buf block_entries;
    let nblocks = (count + block_entries - 1) / block_entries in
    let bodies =
      Array.init nblocks (fun b ->
          let lo = b * block_entries in
          let scratch = Buffer.create 512 in
          pack_v4_slice scratch p lo (min block_entries (count - lo));
          Buffer.contents scratch)
    in
    let prev = ref 0 in
    Array.iteri
      (fun b body ->
        let ft = tid_at p (b * block_entries) in
        Varint.write buf (ft - !prev);
        prev := ft;
        Varint.write buf (String.length body))
      bodies;
    Array.iter (Buffer.add_string buf) bodies
  end

(* decode [count] v4-slice entries; [resolve tid pre] supplies the interval
   from the corpus store (and is the bounds authority for both arguments —
   a corrupt tid or pre must surface as its error, never as a crash) *)
let unpack_v4_slice ~key_size ~resolve ~count ~limit s off =
  if key_size < 1 then malformed off "key size must be >= 1";
  check_count ~count ~per_entry:(1 + key_size) ~remaining:(limit - off) off;
  let a = Array.make count (0, [||]) in
  let off = ref off in
  let prev_tid = ref 0 in
  let prev_pre = ref 0 in
  for i = 0 to count - 1 do
    let at = !off in
    let dtid, o = checked_varint ~limit s at in
    let tid = if i = 0 then dtid else !prev_tid + dtid in
    let base = if i > 0 && dtid = 0 then !prev_pre else 0 in
    let dpre, o = checked_varint ~limit s o in
    let root_pre = base + dpre in
    if tid < 0 || root_pre < 0 then malformed at "instance root out of range";
    let root : interval = resolve tid root_pre in
    let ivs = Array.make key_size root in
    off := o;
    for k = 1 to key_size - 1 do
      let dpre, o = checked_varint ~limit s !off in
      let pre = root_pre + dpre in
      if pre < 0 then malformed !off "instance node out of range";
      ivs.(k) <- resolve tid pre;
      off := o
    done;
    a.(i) <- (tid, ivs);
    prev_tid := tid;
    prev_pre := root_pre
  done;
  (Interval_p a, !off)

let unpack_block_v4 ~key_size ~resolve s (b : block) =
  let finish = b.boff + b.blen in
  let p, off = unpack_v4_slice ~key_size ~resolve ~count:b.bentries ~limit:finish s b.boff in
  if off <> finish then malformed off "block shorter than its recorded length";
  if b.first_tid >= 0 && b.bentries > 0 && tid_at p 0 <> b.first_tid then
    malformed b.boff "block first tid disagrees with the skip table";
  p

let unpack_v4 ~key_size ~resolve ?limit s off =
  let limit = clamp_limit limit s in
  let count, blocks = v3_layout Interval ~limit s off in
  let parts = Array.map (unpack_block_v4 ~key_size ~resolve s) blocks in
  let finish =
    let b = blocks.(Array.length blocks - 1) in
    b.boff + b.blen
  in
  if Array.length parts = 1 then (parts.(0), finish)
  else (concat_parts Interval ~count blocks parts, finish)
