(* fuzz_main — corruption / differential fuzzer for the index files.

   Builds small pristine SIDX4 prefixes under all three codings (mss 1 and
   3; default and forced 4-entry posting blocks), then hammers them with
   deterministic byte mutations — truncation, bit flips, splices, range
   fills, appends, deletions — asserting the crash-proofing invariant:

     a mutated file produces a clean [Si_error] or a correct answer —
     never an uncaught exception, never a silently wrong result.

   "Correct answer" is oracle-checked: every byte of an SIDX4 prefix's
   [.idx] and [.trees] is covered by a CRC, so when a mutated prefix still
   opens and answers, the answer must equal the brute-force matcher's.

   Phases, interleaved per iteration: [idx] mutates the .idx or .trees
   bytes, [skip] mutates bytes inside the postings region — v3 block-skip
   tables and block bodies, v4 interval slices — then refits the postings
   CRC (and the footer and [.meta] digests over it) so the integrity gates
   pass and the decode-time structural validation is what must reject the
   damage (cleanly, at query time), [codec] feeds raw garbage and mutated
   slices of real posting bodies to the posting decoders (must return or
   raise [Coding.Malformed], nothing else), [sibling] mutates .labels /
   .meta (open must return [Ok]/[Error], queries must not raise),
   [failpoint] injects faults on the load and save paths, and [scrub]
   drives the integrity scrub and repair.

   Fully deterministic: all randomness flows from --seed through splitmix64
   (Si_grammar.Prng), so a failing run reproduces exactly. *)

open Si_core
module Prng = Si_grammar.Prng

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let failures = ref 0

let fail_iter iter fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "fuzz FAILURE at iteration %d: %s\n%!" iter msg)
    fmt

(* ---- byte mutations ---------------------------------------------------- *)

let mutate_once g s =
  let n = String.length s in
  let b = Bytes.of_string s in
  match Prng.int g 7 with
  | 0 -> (* truncate *) if n = 0 then s else String.sub s 0 (Prng.int g n)
  | 1 ->
      (* flip 1..8 random bits *)
      if n = 0 then s
      else begin
        for _ = 1 to 1 + Prng.int g 8 do
          let i = Prng.int g n in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int g 8)))
        done;
        Bytes.to_string b
      end
  | 2 ->
      (* splice: overwrite a range with bytes copied from elsewhere *)
      if n < 2 then s
      else begin
        let len = 1 + Prng.int g (min 32 (n - 1)) in
        let src = Prng.int g (n - len + 1) and dst = Prng.int g (n - len + 1) in
        Bytes.blit_string s src b dst len;
        Bytes.to_string b
      end
  | 3 ->
      (* fill a range with 0x00 or 0xff *)
      if n = 0 then s
      else begin
        let len = 1 + Prng.int g (min 32 n) in
        let off = Prng.int g (n - len + 1) in
        Bytes.fill b off len (if Prng.int g 2 = 0 then '\x00' else '\xff');
        Bytes.to_string b
      end
  | 4 ->
      (* append garbage *)
      s ^ String.init (1 + Prng.int g 64) (fun _ -> Char.chr (Prng.int g 256))
  | 5 ->
      (* delete a range *)
      if n = 0 then s
      else begin
        let len = 1 + Prng.int g (min 32 n) in
        let off = Prng.int g (n - len + 1) in
        String.sub s 0 off ^ String.sub s (off + len) (n - len - off)
      end
  | _ ->
      (* store 1..4 random bytes *)
      if n = 0 then s
      else begin
        for _ = 1 to 1 + Prng.int g 4 do
          Bytes.set b (Prng.int g n) (Char.chr (Prng.int g 256))
        done;
        Bytes.to_string b
      end

let mutate g s =
  let rec go s k = if k = 0 then s else go (mutate_once g s) (k - 1) in
  go s (1 + Prng.int g 3)

(* ---- pristine bases ----------------------------------------------------- *)

let queries =
  List.map Si_query.Parser.parse_exn
    [ "S(NP)(VP)"; "NP(DT)(NN)"; "S(//NN)"; "S(NP(DT)(NN))(VP)" ]

type base = {
  name : string;
  scratch : string;  (** prefix whose files are rewritten per iteration *)
  files : (string * string) list;  (** pristine bytes per extension *)
  scheme : Coding.scheme;
  expected : (Si_query.Ast.t * (int * int) list) list;
}

let u64_at s off =
  let v = ref 0 in
  for i = 7 downto 0 do v := (!v lsl 8) lor Char.code s.[off + i] done;
  !v

let set_u32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

(* the postings region of SIDX4 bytes, from the footer's region table *)
let postings_span s =
  let len = String.length s in
  let kindex_len = u64_at s (len - 56) and keydir_len = u64_at s (len - 48) in
  (8 + kindex_len + keydir_len, u64_at s (len - 40))

(* the [.meta] records the .idx footer digest (the mixed-file-set
   detector): refit it after rewriting the .idx on purpose *)
let refit_meta prefix =
  let crc = Builder.file_digest (prefix ^ ".idx") in
  let lines = String.split_on_char '\n' (read_file (prefix ^ ".meta")) in
  let lines =
    List.map
      (fun l ->
        if String.length l >= 8 && String.sub l 0 8 = "idx_crc=" then
          "idx_crc=" ^ string_of_int crc
        else l)
      lines
  in
  write_file (prefix ^ ".meta") (String.concat "\n" lines)

let make_bases dir =
  let bases = ref [] in
  List.iter
    (fun scheme ->
      List.iter
        (fun mss ->
          List.iter
            (fun blocked ->
              let name =
                Printf.sprintf "%s-mss%d%s"
                  (Coding.scheme_to_string scheme)
                  mss
                  (if blocked then "-b4" else "")
              in
              let prefix = Filename.concat dir name in
              let trees =
                Si_grammar.Generator.corpus ~seed:(100 + mss) ~n:25 ()
              in
              let si = Si.build ~scheme ~mss ~trees ~prefix () in
              if blocked then begin
                (* the same postings in 4-entry blocks: real skip tables
                   for the [skip] phase to damage *)
                let docs = Array.of_list (List.map Si_treebank.Annotated.of_tree trees) in
                (match
                   Builder.save
                     (Builder.build ~block_entries:4 ~scheme ~mss docs)
                     (prefix ^ ".idx")
                 with
                | Ok () -> ()
                | Error e -> failwith (Si_error.to_string e));
                refit_meta prefix
              end;
              let expected = List.map (fun q -> (q, Si.oracle si q)) queries in
              let files =
                List.map
                  (fun ext -> (ext, read_file (prefix ^ ext)))
                  [ ".idx"; ".trees"; ".labels"; ".meta" ]
              in
              let scratch = Filename.concat dir (name ^ "-scratch") in
              bases := { name; scratch; files; scheme; expected } :: !bases)
            [ false; true ])
        [ 1; 3 ])
    [ Coding.Filter; Coding.Interval; Coding.Root_split ];
  Array.of_list (List.rev !bases)

let restore base =
  List.iter (fun (ext, bytes) -> write_file (base.scratch ^ ext) bytes) base.files

(* ---- phases ------------------------------------------------------------- *)

type stats = {
  mutable idx_runs : int;
  mutable idx_rejected : int;  (** mutated .idx -> clean error *)
  mutable idx_opened : int;  (** mutated .idx still opened (oracle-checked) *)
  mutable skip_runs : int;
  mutable skip_rejected : int;  (** crc-refit mutation -> clean error *)
  mutable skip_opened : int;  (** opened; queries must not crash *)
  mutable skip_caught : int;
      (** opened, then a decode check rejected the damage at query time
          (the handle quarantined itself) *)
  mutable codec_runs : int;
  mutable sibling_runs : int;
  mutable failpoint_runs : int;
  mutable scrub_runs : int;
  mutable scrub_rejected : int;  (** mutated prefix -> clean open error *)
  mutable scrub_repairs : int;  (** successful repair + oracle-exact reopen *)
}

(* every query on a surviving index must come back as a result; with
   [oracle_checked] an [Ok] must equal the oracle *)
let check_queries iter base si ~oracle_checked =
  List.iter
    (fun (q, want) ->
      match Si.query_ast si q with
      | Error _ -> ()
      | Ok got ->
          if oracle_checked && got <> want then
            fail_iter iter
              "silent wrong result on %s: base %s, index %d matches, oracle %d"
              (Si_query.Ast.to_string q) base.name (List.length got)
              (List.length want))
    base.expected

let fuzz_idx g bases st iter =
  let base = Prng.pick g bases in
  restore base;
  (* the .trees corpus store is the second mapped file, under the same
     fully-checksummed contract as the .idx *)
  let ext = if Prng.int g 3 = 0 then ".trees" else ".idx" in
  let pristine = List.assoc ext base.files in
  let mutated = mutate g pristine in
  write_file (base.scratch ^ ext) mutated;
  st.idx_runs <- st.idx_runs + 1;
  match Si.open_ base.scratch with
  | Error _ -> st.idx_rejected <- st.idx_rejected + 1
  | Ok si ->
      st.idx_opened <- st.idx_opened + 1;
      (* opened => every checksum touched so far matched, and anything the
         lazy checks catch later quarantines to the corpus fallback: the
         answers must be correct *)
      check_queries iter base si ~oracle_checked:true

(* [skip] phase: damage the postings region — v3 block-skip tables and
   block bodies, v4 interval slices, posting headers — then recompute the
   region CRC, the footer CRC over it and the [.meta] digest over that, so
   the integrity gates pass.  The structural validation (skip-table
   bounds, block tiling, first-tid monotonicity, exact-length decode, v4
   node resolution) is now the only line of defense: the file may be
   rejected at open, or open and fail cleanly at query time, or decode to
   a valid-but-different posting — but it must never crash.  Oracle
   equality is deliberately not asserted: a refit mutation is
   indistinguishable from a legitimately different index. *)
let fuzz_skip g bases st iter =
  let base = Prng.pick g bases in
  restore base;
  let pristine = List.assoc ".idx" base.files in
  let len = String.length pristine in
  let p_start, postings_len = postings_span pristine in
  if postings_len > 0 then begin
    st.skip_runs <- st.skip_runs + 1;
    let b = Bytes.of_string pristine in
    for _ = 1 to 1 + Prng.int g 4 do
      Bytes.set b (p_start + Prng.int g postings_len) (Char.chr (Prng.int g 256))
    done;
    set_u32 b (len - 12) (Crc32.substring (Bytes.to_string b) p_start postings_len);
    set_u32 b (len - 8) (Crc32.substring (Bytes.to_string b) (len - 72) 64);
    write_file (base.scratch ^ ".idx") (Bytes.to_string b);
    refit_meta base.scratch;
    match Si.open_ base.scratch with
    | Error _ -> st.skip_rejected <- st.skip_rejected + 1
    | Ok si ->
        st.skip_opened <- st.skip_opened + 1;
        check_queries iter base si ~oracle_checked:false;
        if Si.quarantined si then st.skip_caught <- st.skip_caught + 1
  end

(* [codec] phase: the posting decoders on raw garbage, or on a mutated
   slice of a real SIDX4 postings region (v3 bodies, or v4 slices for an
   interval base) — bytes close enough to valid to get past the shallow
   checks *)
let fuzz_codec g bases st _iter =
  st.codec_runs <- st.codec_runs + 1;
  let s, scheme =
    if Prng.int g 2 = 0 then
      ( String.init (Prng.int g 200) (fun _ -> Char.chr (Prng.int g 256)),
        Prng.pick g [| Coding.Filter; Coding.Interval; Coding.Root_split |] )
    else begin
      let base = Prng.pick g bases in
      let idx = List.assoc ".idx" base.files in
      let p_start, postings_len = postings_span idx in
      let off = Prng.int g (max 1 postings_len) in
      let n = min (1 + Prng.int g 200) (postings_len - off) in
      (mutate g (String.sub idx (p_start + off) (max 0 n)), base.scheme)
    end
  in
  let key_size = 1 + Prng.int g 4 in
  (* the v3 container decoders *)
  (match Coding.unpack_v3 scheme ~key_size (Coding.str s) 0 with
  | _ -> ()
  | exception Coding.Malformed _ -> ());
  (match Coding.v3_layout scheme (Coding.str s) 0 with
  | _ -> ()
  | exception Coding.Malformed _ -> ());
  (* the v4 slice decoder, with a benign resolver standing in for the
     corpus store (real resolution is fuzzed through the [idx] phase) *)
  let resolve _tid _pre = { Coding.pre = 0; post = 0; level = 0 } in
  match Coding.unpack_v4 ~key_size ~resolve (Coding.str s) 0 with
  | _ -> ()
  | exception Coding.Malformed _ -> ()

let fuzz_sibling g bases st iter =
  let base = Prng.pick g bases in
  restore base;
  let ext = Prng.pick g [| ".labels"; ".meta" |] in
  write_file (base.scratch ^ ext) (mutate g (List.assoc ext base.files));
  st.sibling_runs <- st.sibling_runs + 1;
  match Si.open_ base.scratch with
  | Error _ -> ()
  | Ok si ->
      (* the mutated sibling may parse to a *different* valid corpus, so the
         stored oracle answers no longer apply: assert crash-freedom only *)
      check_queries iter base si ~oracle_checked:false

(* [failpoint] phase: instead of mutating bytes, inject faults through the
   {!Failpoint} registry — the same mechanism the recovery harness uses —
   with deterministic random specs drawn from the fuzz PRNG.

   Load-side: arm a read/decode-path point (torn reads, decode failures,
   seek failures) and open + query; every outcome must be a clean
   [Si_error] or a result — never a crash.  Save-side: arm a save-path
   point and attempt a rebuild over the scratch prefix; the save must fail
   cleanly (the points all sit before the publish renames) and the
   previously published index must remain byte-intact, loadable, and
   oracle-correct.  The registry is cleared after every iteration so no
   armed point leaks into the byte-mutation phases. *)

let load_specs g =
  match Prng.int g 7 with
  | 0 -> Printf.sprintf "builder.load.read=short:%d" (Prng.int g 512)
  | 1 -> "builder.load.read=sys"
  | 6 -> if Prng.int g 2 = 0 then "builder.load.map=sys" else "builder.load.map=fail"
  | 2 -> Printf.sprintf "builder.decode-block=fail@%d" (1 + Prng.int g 3)
  | 3 -> Printf.sprintf "cursor.decode=fail@%d" (1 + Prng.int g 3)
  | 4 -> Printf.sprintf "cursor.seek=fail@%d" (1 + Prng.int g 2)
  | _ ->
      Printf.sprintf "cursor.decode=fail@p:%d:%d" (10 + Prng.int g 90)
        (Prng.int g 1_000_000)

let save_specs g =
  let name =
    Prng.pick g
      [|
        "builder.save.tmp-open";
        "builder.save.write";
        "builder.save.fsync";
        "builder.save.rename";
        "si.save.siblings";
      |]
  in
  Printf.sprintf "%s=%s" name (if Prng.int g 2 = 0 then "fail" else "sys")

let fuzz_failpoint g bases st iter =
  let base = Prng.pick g bases in
  restore base;
  st.failpoint_runs <- st.failpoint_runs + 1;
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  if Prng.int g 2 = 0 then begin
    (* load-side: faults during open/query surface as clean errors *)
    Failpoint.arm_exn (load_specs g);
    match Si.open_ base.scratch with
    | Error _ -> ()
    | Ok si ->
        (* a point armed with @N may fire on a later query — or never;
           either way each query returns [Ok]/[Error] cleanly, so no
           oracle check (an injected fault legitimately changes answers
           to errors) *)
        check_queries iter base si ~oracle_checked:false
  end
  else begin
    (* save-side: every named save point precedes the publish renames, so
       an aborted rebuild must leave the published set untouched *)
    Failpoint.arm_exn (save_specs g);
    let si0 =
      match Si.open_ base.scratch with
      | Ok si -> si
      | Error e ->
          failwith ("pristine scratch failed to open: " ^ Si_error.to_string e)
    in
    let trees = Si_grammar.Generator.corpus ~seed:iter ~n:6 () in
    (match
       Si.build ~scheme:(Si.scheme si0) ~mss:(Si.mss si0) ~trees
         ~prefix:base.scratch ()
     with
    | _ ->
        fail_iter iter "armed save failpoint did not abort the rebuild (%s)"
          base.name
    | exception Si_error.Error _ -> ()
    | exception Sys_error _ -> ());
    Failpoint.clear ();
    match Si.open_ base.scratch with
    | Error e ->
        fail_iter iter "published index unloadable after aborted save (%s): %s"
          base.name (Si_error.to_string e)
    | Ok si -> check_queries iter base si ~oracle_checked:true
  end

(* [scrub] phase (DESIGN.md §15): open a pristine or mutated prefix and
   drive the integrity scrub through a full cycle under random budgets —
   it must never raise, a pristine prefix must scrub clean, and a
   quarantined handle must keep answering oracle-exact via the corpus
   fallback.  Half the damaged runs then repair: a successful repair must
   reopen to an oracle-correct index (the rebuild sources the corpus). *)

let fuzz_scrub g bases st iter =
  let base = Prng.pick g bases in
  restore base;
  st.scrub_runs <- st.scrub_runs + 1;
  let mutated_ext =
    match Prng.int g 3 with
    | 0 -> None
    | _ ->
        Some (if Prng.int g 3 = 0 then ".trees" else ".idx")
  in
  let changed =
    match mutated_ext with
    | None -> false
    | Some ext ->
        let pristine = List.assoc ext base.files in
        let mutated = mutate g pristine in
        write_file (base.scratch ^ ext) mutated;
        not (String.equal mutated pristine)
  in
  match Si.open_ base.scratch with
  | Error _ -> st.scrub_rejected <- st.scrub_rejected + 1
  | Ok si -> (
      let budget =
        if Prng.int g 2 = 0 then None
        else Some (Scrub.budget ~max_bytes:(1 + Prng.int g 20_000) ())
      in
      let rec drive k last =
        if k = 0 then last
        else
          let r = Si.scrub ?budget si in
          if r.Scrub.complete then r else drive (k - 1) r
      in
      match drive 64 (Si.scrub ?budget si) with
      | exception e ->
          fail_iter iter "scrub raised %s on %s" (Printexc.to_string e)
            base.name
      | r ->
          if (not changed) && r.Scrub.complete && not r.Scrub.clean then
            fail_iter iter "pristine %s scrubbed dirty (bad: %s)" base.name
              (String.concat " " r.Scrub.bad_regions);
          (* quarantined or not, every answer is clean — and exact (the
             fallback is the oracle) *)
          check_queries iter base si ~oracle_checked:true;
          if changed && Prng.int g 2 = 0 then (
            match Si.repair si with
            | Error _ -> ()  (* e.g. the corpus store itself is damaged *)
            | exception Si_error.Error _ | (exception Sys_error _) -> ()
            | Ok _ -> (
                match Si.open_ base.scratch with
                | Error e ->
                    fail_iter iter
                      "repaired prefix unloadable (%s): %s" base.name
                      (Si_error.to_string e)
                | Ok si' ->
                    st.scrub_repairs <- st.scrub_repairs + 1;
                    (* the rebuild sourced the (verified) corpus, so the
                       repaired answers are the truth *)
                    check_queries iter base si' ~oracle_checked:true)))

(* ---- driver ------------------------------------------------------------- *)

let () =
  Printexc.record_backtrace true;
  let seed = ref 0xC0FFEE in
  let iters = ref 2000 in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "PRNG seed (default 0xC0FFEE)");
      ("--iters", Arg.Set_int iters, "number of fuzz iterations (default 2000)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz_main [--seed S] [--iters N]";
  let dir = Filename.temp_file "si_fuzz" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let bases = make_bases dir in
  let g = Prng.create !seed in
  let st =
    {
      idx_runs = 0;
      idx_rejected = 0;
      idx_opened = 0;
      skip_runs = 0;
      skip_rejected = 0;
      skip_opened = 0;
      skip_caught = 0;
      codec_runs = 0;
      sibling_runs = 0;
      failpoint_runs = 0;
      scrub_runs = 0;
      scrub_rejected = 0;
      scrub_repairs = 0;
    }
  in
  for iter = 1 to !iters do
    let run f = try f () with e ->
      Failpoint.clear ();
      fail_iter iter "uncaught exception %s\n%s" (Printexc.to_string e)
        (Printexc.get_backtrace ())
    in
    let phase = Prng.int g 16 in
    if phase < 6 then run (fun () -> fuzz_idx g bases st iter)
    else if phase < 9 then run (fun () -> fuzz_skip g bases st iter)
    else if phase < 11 then run (fun () -> fuzz_codec g bases st iter)
    else if phase < 12 then run (fun () -> fuzz_sibling g bases st iter)
    else if phase < 14 then run (fun () -> fuzz_failpoint g bases st iter)
    else run (fun () -> fuzz_scrub g bases st iter)
  done;
  Printf.printf
    "fuzz: %d iterations, %d failures (idx: %d runs, %d rejected, %d survived; \
     skip: %d runs, %d rejected, %d survived, %d caught at decode; codec: %d; \
     sibling: %d; \
     failpoint: %d; scrub: %d runs, %d rejected, %d repaired)\n"
    !iters !failures st.idx_runs st.idx_rejected st.idx_opened st.skip_runs
    st.skip_rejected st.skip_opened st.skip_caught st.codec_runs st.sibling_runs
    st.failpoint_runs st.scrub_runs st.scrub_rejected st.scrub_repairs;
  if !failures > 0 then exit 1
