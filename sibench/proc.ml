(* Child processes: the si_tool binary under test, as a user runs it.
   Every child is tracked until reaped, so an abort kills and waits for
   whatever is still running. *)

(* [realtime on]: this thread to SCHED_FIFO (children reset to normal
   priority) or back; false when not permitted *)
external realtime : bool -> bool = "sibench_realtime"

let tool = "_build/default/bin/si_tool.exe"
let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let devnull_in = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
let devnull_out = lazy (Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0)

let spawn ?stdout ?stderr args =
  let out = match stdout with Some fd -> fd | None -> Lazy.force devnull_out in
  let err = match stderr with Some fd -> fd | None -> Lazy.force devnull_out in
  let pid = Unix.create_process tool (Array.of_list (tool :: args)) (Lazy.force devnull_in) out err in
  Hashtbl.replace live pid ();
  pid

let code = function Unix.WEXITED c -> c | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s

(* Reap [pid]: its exit code, or the negated signal that killed it. *)
let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> Hashtbl.remove live pid; code status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Reap [pid] if it has exited; [None] while it runs. *)
let poll pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Hashtbl.remove live pid; Some (code status)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

let kill_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  List.iter (fun pid -> ignore (wait pid)) (Hashtbl.fold (fun p () acc -> p :: acc) live [])

(* read to EOF: /proc files report a length of 0 *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run si_tool to completion with its output in [log]; fails with the
   log's tail on a non-zero exit. *)
let run_tool ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = spawn ~stdout:fd ~stderr:fd args in
  Unix.close fd;
  match wait pid with
  | 0 -> ()
  | code ->
      let s = read_file log in
      let tail = String.sub s (max 0 (String.length s - 400)) (min 400 (String.length s)) in
      failwith (Printf.sprintf "si_tool %s exited %d: %s" (String.concat " " args) code tail)

(* One CLI call with its stdout captured: (exit code, stdout). *)
let capture args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:wr args in
  Unix.close wr;
  let b = Buffer.create 256 and chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k -> Buffer.add_subbytes b chunk 0 k; drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  let code = wait pid in
  (code, Buffer.contents b)

type server = { pid : int; port : int }

(* Start [si_tool serve --listen 0 ...] and wait for the port line and a
   first HEALTH OK. *)
let start_server ~dir args =
  let out = Filename.concat dir "server.out" and err = Filename.concat dir "server.err" in
  let fo = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let fe = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = spawn ~stdout:fo ~stderr:fe ("serve" :: "--listen" :: "0" :: args) in
  Unix.close fo;
  Unix.close fe;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec port () =
    if Unix.gettimeofday () > deadline then failwith "server did not print its port";
    (match poll pid with
    | Some code -> failwith (Printf.sprintf "server exited %d: %s" code (read_file err))
    | None -> ());
    let s = read_file out in
    match String.index_opt s '\n' with
    | Some e -> (
        let line = String.sub s 0 e in
        match Scanf.sscanf_opt line "listening on %[^:]:%d" (fun _ p -> p) with
        | Some p -> p
        | None -> failwith ("unexpected server banner: " ^ line))
    | None -> Unix.sleepf 0.002; port ()
  in
  let port = port () in
  let rec healthy () =
    if Unix.gettimeofday () > deadline then failwith "server never answered HEALTH OK";
    match Wire.connect port with
    | c -> (
        let r = Wire.request ~timeout_s:10. c "HEALTH\n" ~query:false in
        Wire.close c;
        match r with
        | Some s when String.length s >= 2 && String.sub s 0 2 = "OK" -> ()
        | _ -> Unix.sleepf 0.002; healthy ())
    | exception Unix.Unix_error _ -> Unix.sleepf 0.002; healthy ()
  in
  healthy ();
  { pid; port }

(* Graceful stop (SIGTERM drains in-flight requests), escalating to
   SIGKILL after 20 s. *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    match poll s.pid with
    | Some _ -> ()
    | None ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait s.pid)
        end
        else (Unix.sleepf 0.005; go ())
  in
  go ()

(* The first "KEY: <int>" line of /proc/PID/FILE; 0 if absent. *)
let proc_field pid file key =
  match read_file (Printf.sprintf "/proc/%d/%s" pid file) with
  | s ->
      let prefix = key ^ ":" in
      List.find_map
        (fun l ->
          if String.starts_with ~prefix l then
            Scanf.sscanf_opt (String.sub l (String.length prefix) (String.length l - String.length prefix)) " %d" Fun.id
          else None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:0
  | exception Sys_error _ -> 0

(* bytes the process caused to be written to storage *)
let write_bytes pid = proc_field pid "io" "write_bytes"

(* the process's peak resident set so far, KiB *)
let peak_rss_kib pid = proc_field pid "status" "VmHWM"
