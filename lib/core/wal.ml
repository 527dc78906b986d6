open Si_treebank
open Si_subtree

let path prefix = prefix ^ ".wal"
let magic = "SIWL1\n"
let header_len = 8

(* A frame larger than this is a torn or garbage length field, not a
   record anyone wrote: a single sentence tree is a few hundred bytes. *)
let max_payload = 1 lsl 28

let scheme_byte = function
  | Coding.Filter -> 'F'
  | Coding.Interval -> 'I'
  | Coding.Root_split -> 'R'

type t = {
  wpath : string;
  fd : Unix.file_descr;
  mutable n_records : int;
  mutable size : int;
  mutable closed : bool;
}

let u32_of s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let add_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let io_guard wpath f =
  try f () with
  | Sys_error m -> Si_error.raise_io ~path:wpath m
  | Unix.Unix_error (e, _, _) -> Si_error.raise_io ~path:wpath (Unix.error_message e)

(* Scan every intact frame of [contents]; returns the records in log
   order and the byte length of the intact prefix.  Stops (without
   raising) at the first incomplete or checksum-failing frame — that is a
   torn tail from a crash mid-append.  A frame whose CRC verifies but
   whose payload is malformed is corruption and raises. *)
let scan ~wpath ~scheme ~mss contents =
  let n = String.length contents in
  if String.sub contents 0 (String.length magic) <> magic then
    Si_error.raise_corrupt ~path:wpath ~offset:0 "bad WAL magic";
  if contents.[6] <> scheme_byte scheme then
    Si_error.raise_schema ~path:wpath "WAL scheme does not match the index";
  if Char.code contents.[7] <> mss then
    Si_error.raise_schema ~path:wpath
      (Printf.sprintf "WAL mss %d does not match index mss %d"
         (Char.code contents.[7]) mss);
  let recs = ref [] and off = ref header_len and stop = ref false in
  while not !stop do
    if !off + 8 > n then stop := true
    else
      let plen = u32_of contents !off in
      let crc = u32_of contents (!off + 4) in
      if plen <= 0 || plen > max_payload || !off + 8 + plen > n then
        stop := true
      else if Crc32.substring contents (!off + 8) plen <> crc then stop := true
      else begin
        let payload = String.sub contents (!off + 8) plen in
        let tid, toff =
          try Varint.read payload 0
          with Invalid_argument _ ->
            Si_error.raise_corrupt ~path:wpath ~offset:(!off + 8)
              "WAL record: bad tid varint"
        in
        let tree =
          try Penn.parse_one_exn (String.sub payload toff (plen - toff))
          with Failure m ->
            Si_error.raise_corrupt ~path:wpath ~offset:(!off + 8)
              ("WAL record: " ^ m)
        in
        recs := (tid, tree) :: !recs;
        off := !off + 8 + plen
      end
  done;
  (List.rev !recs, !off)

let replay ~scheme ~mss prefix =
  let wpath = path prefix in
  if not (Sys.file_exists wpath) then []
  else begin
    Failpoint.hit "wal.replay";
    let contents =
      io_guard wpath (fun () -> In_channel.with_open_bin wpath In_channel.input_all)
    in
    (* Records are durable only after the 8-byte header was fsync'd, so a
       shorter file is a torn creation holding nothing. *)
    if String.length contents < header_len then []
    else fst (scan ~wpath ~scheme ~mss contents)
  end

let write_full fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let read_fd fd wpath =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create len in
  let off = ref 0 in
  while !off < len do
    let n = Unix.read fd buf !off (len - !off) in
    if n = 0 then Si_error.raise_io ~path:wpath "unexpected EOF";
    off := !off + n
  done;
  Bytes.unsafe_to_string buf

let open_append ~scheme ~mss prefix =
  if mss < 0 || mss > 255 then invalid_arg "Wal.open_append: mss out of range";
  let wpath = path prefix in
  let fd =
    io_guard wpath (fun () ->
        Unix.openfile wpath [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644)
  in
  try
    let contents = io_guard wpath (fun () -> read_fd fd wpath) in
    if String.length contents < header_len then begin
      (* Fresh log (or a torn creation, which by construction holds no
         durable record): write the header and make it durable before the
         first append can. *)
      io_guard wpath (fun () ->
          Unix.ftruncate fd 0;
          ignore (Unix.lseek fd 0 Unix.SEEK_SET);
          write_full fd
            (magic ^ String.make 1 (scheme_byte scheme)
            ^ String.make 1 (Char.chr mss));
          Unix.fsync fd);
      { wpath; fd; n_records = 0; size = header_len; closed = false }
    end
    else begin
      let recs, intact = scan ~wpath ~scheme ~mss contents in
      io_guard wpath (fun () ->
          if intact < String.length contents then begin
            Unix.ftruncate fd intact;
            Unix.fsync fd
          end;
          ignore (Unix.lseek fd intact Unix.SEEK_SET));
      { wpath; fd; n_records = List.length recs; size = intact; closed = false }
    end
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

(* Group commit: every record of one call is framed into one buffer,
   written with one [write_full] and made durable by one fsync.  A crash
   mid-write leaves a whole-frame prefix followed by a torn frame, which
   {!scan} stops at — the same state a crash between separate appends
   leaves. *)
let append t ~tid trees =
  if t.closed then invalid_arg "Wal.append: closed handle";
  if tid < 0 then invalid_arg "Wal.append: negative tid";
  let frames = Buffer.create 256 in
  let payload = Buffer.create 256 in
  List.iteri
    (fun i tree ->
      Buffer.clear payload;
      Varint.write payload (tid + i);
      Buffer.add_string payload (Tree.to_string tree);
      let p = Buffer.contents payload in
      add_u32 frames (String.length p);
      add_u32 frames (Crc32.string p);
      Buffer.add_string frames p)
    trees;
  let bytes = Buffer.contents frames in
  Failpoint.hit "wal.append.write";
  io_guard t.wpath (fun () -> write_full t.fd bytes);
  Failpoint.hit "wal.append.fsync";
  io_guard t.wpath (fun () -> Unix.fsync t.fd);
  t.n_records <- t.n_records + List.length trees;
  t.size <- t.size + String.length bytes

let records t = t.n_records
let bytes t = t.size

let truncate t =
  if t.closed then invalid_arg "Wal.truncate: closed handle";
  Failpoint.hit "wal.truncate";
  io_guard t.wpath (fun () ->
      Unix.ftruncate t.fd header_len;
      Unix.fsync t.fd;
      ignore (Unix.lseek t.fd header_len Unix.SEEK_SET));
  t.n_records <- 0;
  t.size <- header_len

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with _ -> ()
  end
