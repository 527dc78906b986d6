(* The load generator: one thread, one select loop, at most one request
   in flight per connection.  Each lane is a group of connections fed by
   a closed loop (a connection sends its next request as soon as its
   reply is complete) for a while and then by an open-loop schedule (each
   request has a due time, fixed in advance, and waits in the lane's
   queue while every connection of the lane is busy).  Times are
   CLOCK_MONOTONIC nanoseconds. *)

let now = Si_core.Monotonic.now_ns

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable alive : bool;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e -> Unix.close fd; raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Bytes.create 65536; len = 0; alive = true }

let close c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let rec write_all fd s off len =
  if len > 0 then
    let k = Unix.write_substring fd s off len in
    write_all fd s (off + k) (len - k)

(* Read what the socket has into [c.buf]; false on EOF or error. *)
let fill c =
  if c.len = Bytes.length c.buf then begin
    let nb = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 nb 0 c.len;
    c.buf <- nb
  end;
  match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> false
  | k -> c.len <- c.len + k; true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Whether [c.buf] holds one complete reply.  With one request in flight
   per connection the reply is complete exactly when the bytes received
   end it: a QUERY answered [OK n=...] ends with a lone "." line (body
   lines start with 'M'), every other reply (a QUERY's ERR included) is
   one line. *)
let complete c ~query =
  let ends s =
    let k = String.length s in
    c.len >= k && Bytes.sub_string c.buf (c.len - k) k = s
  in
  if query && c.len >= 5 && Bytes.sub_string c.buf 0 5 = "OK n=" then ends "\n.\n"
  else ends "\n"

let take c =
  let s = Bytes.sub_string c.buf 0 c.len in
  c.len <- 0;
  s

(* Synchronous request for set-up, the correctness gate and admin
   verbs: the whole reply text, or [None] if the connection broke or
   [timeout_s] passed. *)
let request ?(timeout_s = 60.) c line ~query =
  write_all c.fd line 0 (String.length line);
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if complete c ~query then Some (take c)
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else
        match Unix.select [ c.fd ] [] [] left with
        | [], _, _ -> None
        | _ -> if fill c then wait () else None
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with Some s -> Some s | None -> close c; None

(* Fields of a status line "OK n=12 truncated=0 gen=1 us=431.2". *)
let field status key =
  let prefix = key ^ "=" in
  List.find_map
    (fun tok ->
      if String.length tok > String.length prefix
         && String.sub tok 0 (String.length prefix) = prefix
      then Some (String.sub tok (String.length prefix) (String.length tok - String.length prefix))
      else None)
    (String.split_on_char ' ' (String.trim status))

type phase = Warm | Closed | Open

type op = {
  id : int;
  kind : [ `Query of int | `Insert of int ];
  phase : phase;
  due : int;
  noticed : int;  (** when the loop saw it due: [noticed - due] is generator lateness *)
  mutable sent : int;
  mutable recv : int;  (** 0 while unanswered *)
  mutable ok : bool;  (** answered [OK ...] *)
  mutable us : float;  (** server evaluation time, from us= *)
  mutable bytes : int;  (** reply size *)
}

type lane = {
  conns : conn list;
  closed_until : int;  (** closed-loop sending until this instant *)
  closed_phase : phase;
  next_closed : unit -> [ `Query of int | `Insert of int ];
  schedule : (int * [ `Query of int | `Insert of int ]) array;  (** open loop, by due *)
  mutable next_due : int;  (** index into [schedule] *)
  pending : op Queue.t;
}

let lane ?(closed_until = 0) ?(closed_phase = Closed) ?(next_closed = fun () -> `Query 0)
    ?(schedule = [||]) conns =
  { conns; closed_until; closed_phase; next_closed; schedule; next_due = 0;
    pending = Queue.create () }

(* Drive [lanes] until every schedule is sent, every closed loop has
   expired and every reply is in, or until 20 s after the last scheduled
   instant.  [line] renders a request; [on_reply] sees each op as its
   reply completes.  Returns every op issued, in issue order; an op never
   answered has [recv = 0] and [ok = false]. *)
let run ?(on_reply = fun (_ : op) -> ()) ~line lanes =
  let ops = ref [] and next_id = ref 0 in
  let busy : (Unix.file_descr, conn * op) Hashtbl.t = Hashtbl.create 4 in
  let mk kind phase due noticed =
    let o = { id = !next_id; kind; phase; due; noticed; sent = 0; recv = 0; ok = false; us = 0.; bytes = 0 } in
    incr next_id;
    ops := o :: !ops;
    o
  in
  let send c o =
    o.sent <- now ();
    let s = line o.kind in
    match write_all c.fd s 0 (String.length s) with
    | () -> Hashtbl.replace busy c.fd (c, o)
    | exception Unix.Unix_error _ -> close c
  in
  let last_instant =
    List.fold_left
      (fun acc l ->
        let n = Array.length l.schedule in
        max acc (max l.closed_until (if n = 0 then 0 else fst l.schedule.(n - 1))))
      (now ()) lanes
  in
  let stop_at = last_instant + 20_000_000_000 in
  let receive fd =
    let c, o = Hashtbl.find busy fd in
    let query = match o.kind with `Query _ -> true | `Insert _ -> false in
    if not (fill c) then begin
      Hashtbl.remove busy fd;
      close c
    end
    else if complete c ~query then begin
      o.recv <- now ();
      o.bytes <- c.len;
      let status = Bytes.sub_string c.buf 0 (Bytes.index c.buf '\n') in
      c.len <- 0;
      o.ok <- String.starts_with ~prefix:"OK" status;
      if query && o.ok then o.us <- Option.fold ~none:0. ~some:float_of_string (field status "us");
      Hashtbl.remove busy fd;
      on_reply o
    end
  in
  let rec loop () =
    let t = now () in
    List.iter
      (fun l ->
        while l.next_due < Array.length l.schedule && fst l.schedule.(l.next_due) <= t do
          let due, kind = l.schedule.(l.next_due) in
          Queue.push (mk kind Open due t) l.pending;
          l.next_due <- l.next_due + 1
        done;
        List.iter
          (fun c ->
            if c.alive && not (Hashtbl.mem busy c.fd) then
              if not (Queue.is_empty l.pending) then send c (Queue.pop l.pending)
              else if t < l.closed_until then
                send c (mk (l.next_closed ()) l.closed_phase t t))
          l.conns)
      lanes;
    let sending =
      List.exists
        (fun l ->
          List.exists (fun c -> c.alive) l.conns
          && (l.next_due < Array.length l.schedule || not (Queue.is_empty l.pending)
             || t < l.closed_until))
        lanes
    in
    if (sending || Hashtbl.length busy > 0) && t < stop_at then begin
      let wake =
        List.fold_left
          (fun acc l ->
            if l.next_due < Array.length l.schedule then min acc (fst l.schedule.(l.next_due))
            else acc)
          (t + 50_000_000) lanes
      in
      let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) busy [] in
      (match Unix.select fds [] [] (Float.max 0. (float_of_int (wake - t) /. 1e9)) with
      | ready, _, _ -> List.iter receive ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Hashtbl.iter (fun _ (c, _) -> close c) busy;
  List.rev !ops
