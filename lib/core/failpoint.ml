type action =
  | Fail
  | Sys_fail
  | Exit of int
  | Delay of int  (* milliseconds *)
  | Short of int  (* cap a read_len site at this many bytes *)

type trigger =
  | Nth of int  (* fire on exactly the nth hit, 1-based *)
  | From of int  (* fire on every hit from the nth on *)
  | Prob of float * int64 ref  (* probability in [0,1], splitmix64 state *)

type point = { action : action; trigger : trigger; mutable hits : int }

(* [enabled] is read unlocked on the (overwhelmingly common) unarmed fast
   path; a stale read can only miss a hit that raced arming, which is fine
   — everything else goes through the mutex. *)
let enabled = ref false
let table : (string, point) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

let env_var = "SI_FAILPOINTS"

(* minimal splitmix64 (same algorithm as Si_grammar.Prng — inlined rather
   than depending on the corpus-generation library from core) *)
let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float state =
  Int64.to_float (Int64.shift_right_logical (splitmix state) 11)
  *. (1.0 /. 9007199254740992.0)

(* ---- spec parsing ------------------------------------------------------- *)

let parse_trigger s =
  if s = "" then Ok (Nth 1)
  else if String.length s > 1 && s.[String.length s - 1] = '+' then
    match int_of_string_opt (String.sub s 0 (String.length s - 1)) with
    | Some n when n >= 1 -> Ok (From n)
    | _ -> Error (Printf.sprintf "bad trigger %S (want N, N+ or p:PCT:SEED)" s)
  else
    match String.split_on_char ':' s with
    | [ "p"; pct; seed ] -> (
        match (float_of_string_opt pct, int_of_string_opt seed) with
        | Some p, Some sd when p >= 0. && p <= 100. ->
            Ok (Prob (p /. 100., ref (Int64.of_int sd)))
        | _ -> Error (Printf.sprintf "bad probabilistic trigger %S" s))
    | [ n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Ok (Nth n)
        | _ -> Error (Printf.sprintf "bad trigger %S (want N, N+ or p:PCT:SEED)" s))
    | _ -> Error (Printf.sprintf "bad trigger %S" s)

let parse_action s =
  match String.split_on_char ':' s with
  | [ "fail" ] -> Ok Fail
  | [ "sys" ] -> Ok Sys_fail
  | [ "exit" ] -> Ok (Exit 70)
  | [ "exit"; c ] -> (
      match int_of_string_opt c with
      | Some c when c >= 0 && c <= 255 -> Ok (Exit c)
      | _ -> Error (Printf.sprintf "bad exit code in %S" s))
  | [ "delay"; ms ] -> (
      match int_of_string_opt ms with
      | Some ms when ms >= 0 -> Ok (Delay ms)
      | _ -> Error (Printf.sprintf "bad delay in %S" s))
  | [ "short"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok (Short n)
      | _ -> Error (Printf.sprintf "bad short-read length in %S" s))
  | _ ->
      Error
        (Printf.sprintf "unknown action %S (want fail, sys, exit[:C], delay:MS or short:N)" s)

let parse_clause clause =
  match String.index_opt clause '=' with
  | None -> Error (Printf.sprintf "missing '=' in failpoint clause %S" clause)
  | Some i -> (
      let name = String.trim (String.sub clause 0 i) in
      let rhs = String.sub clause (i + 1) (String.length clause - i - 1) in
      if name = "" then Error (Printf.sprintf "empty failpoint name in %S" clause)
      else
        let act, trig =
          match String.index_opt rhs '@' with
          | None -> (rhs, "")
          | Some j ->
              (String.sub rhs 0 j, String.sub rhs (j + 1) (String.length rhs - j - 1))
        in
        match (parse_action (String.trim act), parse_trigger (String.trim trig)) with
        | Ok action, Ok trigger -> Ok (name, { action; trigger; hits = 0 })
        | (Error _ as e), _ | _, (Error _ as e) ->
            (match e with Error m -> Error m | Ok _ -> assert false))

let arm spec =
  let clauses =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
        match parse_clause c with
        | Ok p -> parse (p :: acc) rest
        | Error m -> Error m)
  in
  match parse [] clauses with
  | Error m -> Error m
  | Ok points ->
      Mutex.protect lock (fun () ->
          List.iter (fun (name, p) -> Hashtbl.replace table name p) points;
          enabled := Hashtbl.length table > 0);
      Ok ()

let arm_exn spec =
  match arm spec with Ok () -> () | Error m -> invalid_arg ("Failpoint.arm: " ^ m)

let arm_from_env () =
  match Sys.getenv_opt env_var with None -> Ok () | Some spec -> arm spec

let clear () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset table;
      enabled := false)

let active () = !enabled

(* ---- firing ------------------------------------------------------------- *)

let fires p =
  p.hits <- p.hits + 1;
  match p.trigger with
  | Nth n -> p.hits = n
  | From n -> p.hits >= n
  | Prob (prob, state) -> unit_float state < prob

(* decide under the lock, act outside it (an action may raise or sleep) *)
let armed_action name =
  if not !enabled then None
  else
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some p when fires p -> Some p.action
        | _ -> None)

let perform name = function
  | Fail ->
      raise (Si_error.Error (Si_error.Internal (Printf.sprintf "failpoint %s" name)))
  | Sys_fail -> raise (Sys_error (Printf.sprintf "failpoint %s" name))
  | Exit code ->
      Printf.eprintf "si: failpoint %s: simulated crash (exit %d)\n%!" name code;
      Unix._exit code
  | Delay ms -> Unix.sleepf (float_of_int ms /. 1000.)
  | Short _ -> ()  (* only meaningful at read_len sites *)

let hit name =
  match armed_action name with None -> () | Some a -> perform name a

let read_len name len =
  match armed_action name with
  | None -> len
  | Some (Short n) -> min n len
  | Some a ->
      perform name a;
      len

let known =
  [
    ("builder.save.tmp-open", "before creating the .idx temporary file");
    ("builder.save.write", "payload streamed to the temporary, before flush");
    ("builder.save.fsync", "after flush, before fsync");
    ("builder.save.rename", "after fsync, before the atomic rename");
    ("si.save.siblings", "all four files staged, before the publish renames");
    ("builder.load.read", "sizing the mapped index bytes (supports short:N torn reads)");
    ("builder.load.map", "mapping an SIDX4 index file");
    ("builder.decode-block", "decoding one posting block");
    ("cursor.decode", "a cursor decoding its current block");
    ("cursor.seek", "a cursor skip-table seek");
    ("serve.accept", "a connection accepted, before it is enqueued");
    ("serve.parse", "a request line read, before it is parsed");
    ("serve.swap.open", "a SWAP/SIGHUP about to open the new index set");
    ("serve.swap.flip", "the new index opened, before the generation flip");
    ("wal.append.write", "a WAL record framed, before it is written");
    ("wal.append.fsync", "a WAL record written, before the fsync");
    ("wal.replay", "about to replay an existing WAL into the delta index");
    ("wal.truncate", "checkpoint published, before the WAL ftruncate");
    ("si.checkpoint.merge", "before merging the delta into the main postings");
    ("si.shard.eval.<k>", "shard k's leg of a sharded fan-out, before it runs");
    ("scrub.pass", "a scrub pass starting, before any region is hashed");
    ("scrub.region", "one scrubbed region fully hashed, before its verdict");
    ("si.repair.rebuild", "a repair about to rebuild the index from the corpus");
    ("si.repair.publish", "the repaired index built, before the staged publish");
    ("si.repair.wal-truncate", "repair published, before the WAL truncate");
  ]
