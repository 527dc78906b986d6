(* Network serving layer tests: wire-protocol parsing, admission policy
   (quota / brownout / shedding), the refcounted zero-downtime swap, and
   end-to-end client sessions against an in-process server — including
   concurrent queries racing a live SWAP (zero drops, every answer from
   exactly one generation) and failpoint-aborted swaps. *)

open Si_core
open Si_serve

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Si_error.to_string e)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_infix ~infix s =
  let n = String.length infix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = infix || go (i + 1)) in
  n = 0 || go 0

(* ---- fixtures: two persisted indexes with distinguishable answers ------ *)

let temp_prefix tag =
  let base = Filename.temp_file ("si_net_" ^ tag) "" in
  Sys.remove base;
  base

let rm_prefix p =
  List.iter
    (fun ext -> try Sys.remove (p ^ ext) with Sys_error _ -> ())
    [ ".idx"; ".trees"; ".labels"; ".meta"; ".wal" ]

let build_prefix ~seed ~n tag =
  let prefix = temp_prefix tag in
  let trees = Si_grammar.Generator.corpus ~seed ~n () in
  ignore (Si.build ~scheme:Coding.Root_split ~mss:3 ~trees ~prefix ());
  prefix

(* a query whose match count differs between the two generations — what
   lets a client tell which index answered *)
let distinguishing_query a b =
  let candidates =
    [
      "S(NP(DT)(NN))(VP)";
      "S(NP)(VP(//NP(NN)))";
      "NP(NN)(NN)";
      "VP(VBZ)(NP(DT)(NN))";
      "S(//NP)(//NP)";
    ]
  in
  let count si q = List.length (ok_exn ("count " ^ q) (Si.query si q)) in
  match
    List.find_opt (fun q -> count a q <> count b q) candidates
  with
  | Some q -> (q, count a q, count b q)
  | None -> Alcotest.fail "no candidate query distinguishes the two corpora"

(* ---- a tiny blocking client ------------------------------------------- *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = input_line c.ic

(* send a request; `Ok (status line, body lines)` with the terminator
   consumed, or `Err line *)
let roundtrip c line =
  send c line;
  let first = recv c in
  if String.length first >= 2 && String.sub first 0 2 = "OK" then begin
    let rec body acc =
      match recv c with "." -> List.rev acc | l -> body (l :: acc)
    in
    (* QUERY answers carry a body; single-line verbs do not *)
    let has_body =
      String.length line >= 5 && String.uppercase_ascii (String.sub line 0 5) = "QUERY"
    in
    `Ok (first, if has_body then body [] else [])
  end
  else `Err first

let field line key =
  (* "OK n=3 truncated=0 gen=1 us=12.0" -> Some "3" for key "n" *)
  String.split_on_char ' ' line
  |> List.find_map (fun tok ->
         let k = key ^ "=" in
         if String.length tok > String.length k
            && String.sub tok 0 (String.length k) = k
         then Some (String.sub tok (String.length k)
                      (String.length tok - String.length k))
         else None)

let int_field line key =
  match field line key with
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> Alcotest.failf "field %s not an int in %S" key line)
  | None -> Alcotest.failf "field %s missing in %S" key line

let with_server ?(workers = 2) ?(admission = Admission.default_config) prefix f =
  let cfg =
    { (Server.default_config ~prefix) with workers; admission }
  in
  let srv = ok_exn "Server.start" (Server.start cfg) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* ---- protocol ---------------------------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.parse "QUERY S(NP)(VP)" with
  | Ok (Protocol.Query ("S(NP)(VP)", o)) ->
      Alcotest.(check bool) "default class interactive" true
        (o.Protocol.klass = `Interactive);
      Alcotest.(check bool) "no deadline" true (o.Protocol.deadline_ms = None);
      Alcotest.(check bool) "not count_only" false o.Protocol.count_only
  | _ -> Alcotest.fail "plain QUERY");
  (match
     Protocol.parse
       "query S(NP) deadline_ms=5.5 max_results=3 partial=1 class=batch \
        client=alice count_only=1"
   with
  | Ok (Protocol.Query ("S(NP)", o)) ->
      Alcotest.(check (option (float 0.001))) "deadline" (Some 5.5)
        o.Protocol.deadline_ms;
      Alcotest.(check (option int)) "max_results" (Some 3) o.Protocol.max_results;
      Alcotest.(check bool) "partial" true (o.Protocol.partial = Some true);
      Alcotest.(check bool) "class batch" true (o.Protocol.klass = `Batch);
      Alcotest.(check (option string)) "client" (Some "alice") o.Protocol.client;
      Alcotest.(check bool) "count_only" true o.Protocol.count_only
  | Ok _ -> Alcotest.fail "option QUERY misparsed"
  | Error e -> Alcotest.failf "option QUERY rejected: %s" e);
  List.iter
    (fun l ->
      match Protocol.parse l with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %S" l)
    [
      "";
      "QUERY";
      "QUERY S(NP) nonsense";
      "QUERY S(NP) deadline_ms=abc";
      "QUERY S(NP) class=urgent";
      "SWAP";
      "SWAP a b";
      "STATS now";
      "FROBNICATE x";
    ];
  (match Protocol.parse "SWAP /tmp/ix" with
  | Ok (Protocol.Swap "/tmp/ix") -> ()
  | _ -> Alcotest.fail "SWAP");
  List.iter
    (fun (l, want) ->
      match (Protocol.parse l, want) with
      | Ok Protocol.Stats, `Stats
      | Ok Protocol.Health, `Health
      | Ok Protocol.Quit, `Quit
      | Ok Protocol.Shutdown, `Shutdown -> ()
      | _ -> Alcotest.failf "verb %S" l)
    [ ("STATS", `Stats); ("health", `Health); ("QUIT", `Quit);
      ("SHUTDOWN", `Shutdown) ]

let test_limits_of_opts () =
  let default =
    Limits.v ~deadline_ns:1_000_000 ~max_results:100 ~partial:false ()
  in
  let opts =
    match Protocol.parse "QUERY q max_results=5 partial=1" with
    | Ok (Protocol.Query (_, o)) -> o
    | _ -> Alcotest.fail "parse"
  in
  let l = Protocol.limits_of_opts ~default opts in
  Alcotest.(check (option int)) "deadline inherited" (Some 1_000_000)
    l.Limits.deadline_ns;
  Alcotest.(check (option int)) "max_results overridden" (Some 5)
    l.Limits.max_results;
  Alcotest.(check bool) "partial overridden" true l.Limits.partial

let test_jsonx () =
  Alcotest.(check string) "escaping"
    "{\"a\\n\\\"b\":[1,true,null,\"x\"]}"
    (Jsonx.to_string
       (Jsonx.Obj
          [ ("a\n\"b", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Bool true; Jsonx.Null;
                                   Jsonx.Str "x" ]) ]));
  Alcotest.(check string) "float" "[0.5]"
    (Jsonx.to_string (Jsonx.Arr [ Jsonx.Float 0.5 ]));
  Alcotest.(check string) "nan is null" "[null]"
    (Jsonx.to_string (Jsonx.Arr [ Jsonx.Float Float.nan ]))

(* ---- admission --------------------------------------------------------- *)

let plain_opts =
  match Protocol.parse "QUERY q" with
  | Ok (Protocol.Query (_, o)) -> o
  | _ -> assert false

let test_admission_quota () =
  (* a refill rate of ~0 makes the bucket a pure burst counter *)
  let adm =
    Admission.create
      { Admission.default_config with quota_rps = Some 1e-9; quota_burst = 2. }
  in
  let verdict client =
    Admission.admit adm ~client ~inflight:1 plain_opts
  in
  (match verdict "alice" with Admission.Admit _ -> () | _ -> Alcotest.fail "1st");
  (match verdict "alice" with Admission.Admit _ -> () | _ -> Alcotest.fail "2nd");
  (match verdict "alice" with
  | Admission.Reject_quota -> ()
  | _ -> Alcotest.fail "3rd should exhaust the bucket");
  (* quotas are per client: bob still has his burst *)
  (match verdict "bob" with
  | Admission.Admit _ -> ()
  | _ -> Alcotest.fail "bob isolated");
  (* no quota configured: never rejected *)
  let open_adm = Admission.create Admission.default_config in
  for _ = 1 to 100 do
    match Admission.admit open_adm ~client:"x" ~inflight:1 plain_opts with
    | Admission.Admit _ -> ()
    | _ -> Alcotest.fail "quota off"
  done

let test_admission_brownout_shed () =
  let adm =
    Admission.create
      {
        Admission.default_config with
        interactive = Limits.v ~deadline_ns:1_000_000_000 ();
        brownout_inflight = Some 2;
        shed_inflight = Some 4;
        brownout_deadline_ns = 7;
      }
  in
  (match Admission.admit adm ~client:"c" ~inflight:1 plain_opts with
  | Admission.Admit (l, false) ->
      Alcotest.(check (option int)) "normal deadline" (Some 1_000_000_000)
        l.Limits.deadline_ns
  | _ -> Alcotest.fail "under brownout threshold");
  (match Admission.admit adm ~client:"c" ~inflight:3 plain_opts with
  | Admission.Admit (l, true) ->
      Alcotest.(check (option int)) "browned deadline clamped" (Some 7)
        l.Limits.deadline_ns;
      Alcotest.(check bool) "browned forces partial" true l.Limits.partial
  | _ -> Alcotest.fail "between thresholds must brown out");
  match Admission.admit adm ~client:"c" ~inflight:5 plain_opts with
  | Admission.Reject_overloaded -> ()
  | _ -> Alcotest.fail "above shed threshold must reject"

let test_admission_stale_eviction () =
  (* a hostile flood of distinct client ids must bound the bucket table
     WITHOUT amnesty: the abuser who spent its quota — and keeps hammering,
     which refreshes its bucket's timestamp — must still be rate-limited
     after the overflow sweep, while only the stalest buckets are dropped.
     (The old behaviour reset the whole table, handing the abuser a fresh
     burst the moment 8k strangers showed up.) *)
  let adm =
    Admission.create
      { Admission.default_config with quota_rps = Some 1e-9; quota_burst = 2. }
  in
  let verdict client = Admission.admit adm ~client ~inflight:1 plain_opts in
  (match verdict "abuser" with Admission.Admit _ -> () | _ -> Alcotest.fail "1st");
  (match verdict "abuser" with Admission.Admit _ -> () | _ -> Alcotest.fail "2nd");
  (match verdict "abuser" with
  | Admission.Reject_quota -> ()
  | _ -> Alcotest.fail "burst spent");
  (* flood past the 8192-bucket cap, the abuser retrying throughout (every
     denial refreshes its bucket, so it is never among the stalest) *)
  for i = 1 to 8400 do
    (match verdict (Printf.sprintf "flood-%d" i) with
    | Admission.Admit _ -> ()
    | _ -> Alcotest.failf "fresh client %d rejected" i);
    if i mod 500 = 0 then
      match verdict "abuser" with
      | Admission.Reject_quota -> ()
      | _ -> Alcotest.failf "abuser admitted mid-flood at %d" i
  done;
  (match verdict "abuser" with
  | Admission.Reject_quota -> ()
  | _ -> Alcotest.fail "eviction sweep granted the abuser amnesty");
  (* early flood clients were the stalest: evicted, so a retry is a fresh
     bucket (admitted) — proof the sweep actually ran and was selective *)
  match verdict "flood-1" with
  | Admission.Admit _ -> ()
  | _ -> Alcotest.fail "stalest bucket should have been evicted"

(* ---- swap refcounting --------------------------------------------------- *)

let test_swap_double_release () =
  let pa = build_prefix ~seed:2012 ~n:40 "dblrel" in
  Fun.protect
    ~finally:(fun () -> rm_prefix pa)
    (fun () ->
      let sw = ok_exn "Swap.create" (Swap.create pa) in
      let g = Swap.acquire sw in
      Swap.release sw g;
      (match Swap.release sw g with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "double release must raise, not underflow");
      (* the guard protects a retiring generation from being pinned: a
         correct acquire/release pair still drains after the faulty one *)
      let g1 = Swap.acquire sw in
      Alcotest.(check int) "swap still works" 2 (ok_exn "swap" (Swap.swap sw pa));
      Alcotest.(check int) "old gen draining" 1 (Swap.draining sw);
      Swap.release sw g1;
      Alcotest.(check int) "drain completes" 0 (Swap.draining sw))

let test_swap_refcount () =
  let pa = build_prefix ~seed:2012 ~n:60 "swapa" in
  let pb = build_prefix ~seed:99 ~n:60 "swapb" in
  Fun.protect
    ~finally:(fun () -> rm_prefix pa; rm_prefix pb)
    (fun () ->
      let sw = ok_exn "Swap.create" (Swap.create pa) in
      Alcotest.(check int) "starts at generation 1" 1 (Swap.current_id sw);
      Alcotest.(check string) "prefix" pa (Swap.current_prefix sw);
      let g1 = Swap.acquire sw in
      Alcotest.(check int) "acquired gen 1" 1 (Swap.gen_id g1);
      (* flip while g1 is in flight: the old generation drains *)
      Alcotest.(check int) "swap returns 2" 2 (ok_exn "swap" (Swap.swap sw pb));
      Alcotest.(check int) "current is 2" 2 (Swap.current_id sw);
      Alcotest.(check int) "old gen draining" 1 (Swap.draining sw);
      let g2 = Swap.acquire sw in
      Alcotest.(check int) "new acquire sees 2" 2 (Swap.gen_id g2);
      (* the in-flight reference still answers from its own generation *)
      (match Swap.handle g1 with
      | Si.Single si -> ignore (ok_exn "old gen query" (Si.query si "S(NP)(VP)"))
      | Si.Sharded _ -> Alcotest.fail "expected a single-index generation");
      Swap.release sw g1;
      Alcotest.(check int) "drain complete" 0 (Swap.draining sw);
      Swap.release sw g2;
      (* a swap to a missing prefix fails and changes nothing *)
      (match Swap.swap sw (pa ^ "-missing") with
      | Error (Si_error.Io _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "swap to missing prefix succeeded");
      Alcotest.(check int) "failed swap keeps generation" 2 (Swap.current_id sw))

let test_swap_failpoints () =
  let pa = build_prefix ~seed:2012 ~n:60 "fpa" in
  let pb = build_prefix ~seed:99 ~n:60 "fpb" in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      rm_prefix pa;
      rm_prefix pb)
    (fun () ->
      let sw = ok_exn "Swap.create" (Swap.create pa) in
      Failpoint.arm_exn "serve.swap.open=fail@1";
      (match Swap.swap sw pb with
      | Error (Si_error.Internal _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "armed swap.open must abort");
      Alcotest.(check int) "old generation intact" 1 (Swap.current_id sw);
      (match Swap.handle (Swap.acquire sw) with
      | Si.Single si -> ignore (ok_exn "still serving" (Si.query si "S(NP)(VP)"))
      | Si.Sharded _ -> Alcotest.fail "expected a single-index generation");
      Failpoint.clear ();
      Failpoint.arm_exn "serve.swap.flip=sys@1";
      (match Swap.swap sw pb with
      | Error (Si_error.Io _) -> ()
      | Error e -> Alcotest.failf "wrong flip error: %s" (Si_error.to_string e)
      | Ok _ -> Alcotest.fail "armed swap.flip must abort");
      Alcotest.(check int) "still generation 1" 1 (Swap.current_id sw);
      Failpoint.clear ();
      Alcotest.(check int) "disarmed swap completes" 2
        (ok_exn "swap" (Swap.swap sw pb)))

(* ---- end-to-end: client sessions against an in-process server ---------- *)

let test_server_session () =
  let pa = build_prefix ~seed:2012 ~n:80 "sess" in
  Fun.protect
    ~finally:(fun () -> rm_prefix pa)
    (fun () ->
      with_server pa (fun srv ->
          let c = connect (Server.port srv) in
          Fun.protect
            ~finally:(fun () -> disconnect c)
            (fun () ->
              (match roundtrip c "HEALTH" with
              | `Ok (l, _) ->
                  Alcotest.(check int) "health gen" 1 (int_field l "gen")
              | `Err l -> Alcotest.failf "HEALTH: %s" l);
              (* the wire answer equals the library answer, match body
                 included *)
              let si = ok_exn "open" (Si.open_ pa) in
              let want = ok_exn "query" (Si.query si "S(NP)(VP)") in
              (match roundtrip c "QUERY S(NP)(VP)" with
              | `Ok (l, body) ->
                  Alcotest.(check int) "n" (List.length want) (int_field l "n");
                  Alcotest.(check int) "not truncated" 0 (int_field l "truncated");
                  let got =
                    List.map
                      (fun b ->
                        match String.split_on_char ' ' b with
                        | [ "M"; tid; node ] ->
                            (int_of_string tid, int_of_string node)
                        | _ -> Alcotest.failf "bad match line %S" b)
                      body
                  in
                  Alcotest.(check (list (pair int int))) "matches" want got
              | `Err l -> Alcotest.failf "QUERY: %s" l);
              (match roundtrip c "STATS" with
              | `Ok (l, _) ->
                  Alcotest.(check bool) "stats has index object" true
                    (String.length l > 3
                    && String.sub l 3 (String.length l - 3) |> fun s ->
                       String.length s > 0 && s.[0] = '{'
                       && has_infix ~infix:"\"index\"" s
                       && has_infix ~infix:"\"serving\"" s)
              | `Err l -> Alcotest.failf "STATS: %s" l);
              (match roundtrip c "NO_SUCH_VERB" with
              | `Err l ->
                  Alcotest.(check bool) "bad_request" true
                    (has_prefix ~prefix:"ERR bad_request" l)
              | `Ok _ -> Alcotest.fail "unknown verb accepted");
              (* bad query: typed error, connection stays usable *)
              (match roundtrip c "QUERY S((NP)" with
              | `Err l ->
                  Alcotest.(check bool) "bad_query" true
                    (has_prefix ~prefix:"ERR bad_query" l)
              | `Ok _ -> Alcotest.fail "syntax error accepted");
              match roundtrip c "QUIT" with
              | `Ok (l, _) -> Alcotest.(check string) "bye" "OK bye" l
              | `Err l -> Alcotest.failf "QUIT: %s" l)))

let test_server_deadline_and_partial () =
  let pa = build_prefix ~seed:2012 ~n:80 "dl" in
  Fun.protect
    ~finally:(fun () -> rm_prefix pa)
    (fun () ->
      with_server pa (fun srv ->
          let c = connect (Server.port srv) in
          Fun.protect
            ~finally:(fun () -> disconnect c)
            (fun () ->
              (match roundtrip c "QUERY S(//NP)(//NP) deadline_ms=0" with
              | `Err l ->
                  Alcotest.(check bool) "timeout" true
                    (has_prefix ~prefix:"ERR timeout" l)
              | `Ok _ -> Alcotest.fail "zero deadline must time out");
              (match roundtrip c "QUERY S(//NP)(//NP) deadline_ms=0 partial=1" with
              | `Ok (l, _) ->
                  Alcotest.(check int) "degraded to truncated" 1
                    (int_field l "truncated")
              | `Err l -> Alcotest.failf "partial did not degrade: %s" l);
              (* max_results truncates without erroring *)
              match roundtrip c "QUERY S(NP)(VP) max_results=2" with
              | `Ok (l, body) ->
                  Alcotest.(check int) "capped" 2 (int_field l "n");
                  Alcotest.(check int) "flagged" 1 (int_field l "truncated");
                  Alcotest.(check int) "body capped" 2 (List.length body)
              | `Err l -> Alcotest.failf "max_results errored: %s" l)))

let test_server_quota_and_shed () =
  let pa = build_prefix ~seed:2012 ~n:80 "quota" in
  Fun.protect
    ~finally:(fun () -> rm_prefix pa)
    (fun () ->
      let admission =
        {
          Admission.default_config with
          quota_rps = Some 1e-9;
          quota_burst = 2.;
        }
      in
      with_server ~admission pa (fun srv ->
          let c = connect (Server.port srv) in
          Fun.protect
            ~finally:(fun () -> disconnect c)
            (fun () ->
              let q = "QUERY S(NP)(VP) count_only=1 client=alice" in
              (match roundtrip c q with
              | `Ok _ -> ()
              | `Err l -> Alcotest.failf "1st: %s" l);
              (match roundtrip c q with
              | `Ok _ -> ()
              | `Err l -> Alcotest.failf "2nd: %s" l);
              (match roundtrip c q with
              | `Err l ->
                  Alcotest.(check bool) "quota_exceeded" true
                    (has_prefix ~prefix:"ERR quota_exceeded" l)
              | `Ok _ -> Alcotest.fail "3rd request must be over quota");
              (* another client id is unaffected *)
              match roundtrip c "QUERY S(NP)(VP) count_only=1 client=bob" with
              | `Ok _ -> ()
              | `Err l -> Alcotest.failf "bob rejected: %s" l));
      (* shed_inflight = 0: every query sees itself as the overload *)
      let admission =
        { Admission.default_config with shed_inflight = Some 0 }
      in
      with_server ~admission pa (fun srv ->
          let c = connect (Server.port srv) in
          Fun.protect
            ~finally:(fun () -> disconnect c)
            (fun () ->
              match roundtrip c "QUERY S(NP)(VP) count_only=1" with
              | `Err l ->
                  Alcotest.(check bool) "overloaded" true
                    (has_prefix ~prefix:"ERR overloaded" l)
              | `Ok _ -> Alcotest.fail "shed threshold 0 must reject")))

(* The acceptance centrepiece: clients hammering the server while the
   index is hot-swapped underneath them.  Zero dropped requests, and
   every answer is consistent with exactly one generation. *)
let test_server_swap_under_load () =
  let pa = build_prefix ~seed:2012 ~n:150 "loada" in
  let pb = build_prefix ~seed:99 ~n:150 "loadb" in
  Fun.protect
    ~finally:(fun () -> rm_prefix pa; rm_prefix pb)
    (fun () ->
      let sa = ok_exn "open a" (Si.open_ pa) in
      let sb = ok_exn "open b" (Si.open_ pb) in
      let q, ca, cb =
        let qa, c1, _ = distinguishing_query sa sb in
        (qa, c1, List.length (ok_exn "cb" (Si.query sb qa)))
      in
      Alcotest.(check bool) "counts differ" true (ca <> cb);
      with_server pa (fun srv ->
          let port = Server.port srv in
          let per_client = 25 in
          let client () =
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> disconnect c)
              (fun () ->
                List.init per_client (fun _ ->
                    match roundtrip c (Printf.sprintf "QUERY %s count_only=1" q) with
                    | `Ok (l, _) -> (int_field l "n", int_field l "gen")
                    | `Err l -> Alcotest.failf "query dropped under swap: %s" l))
          in
          let workers = Array.init 2 (fun _ -> Domain.spawn client) in
          (* let traffic build, then flip generations mid-stream *)
          Unix.sleepf 0.05;
          Alcotest.(check int) "swap under load" 2
            (ok_exn "swap" (Server.swap srv pb));
          let answers =
            Array.to_list workers |> List.concat_map Domain.join
          in
          Alcotest.(check int) "every request answered"
            (2 * per_client) (List.length answers);
          List.iter
            (fun (n, gen) ->
              match gen with
              | 1 ->
                  Alcotest.(check int) "gen 1 answers from index A" ca n
              | 2 ->
                  Alcotest.(check int) "gen 2 answers from index B" cb n
              | g -> Alcotest.failf "impossible generation %d" g)
            answers;
          (* the flip actually happened for late traffic *)
          let c = connect port in
          Fun.protect
            ~finally:(fun () -> disconnect c)
            (fun () ->
              match roundtrip c (Printf.sprintf "QUERY %s count_only=1" q) with
              | `Ok (l, _) ->
                  Alcotest.(check int) "post-swap gen" 2 (int_field l "gen");
                  Alcotest.(check int) "post-swap count" cb (int_field l "n")
              | `Err l -> Alcotest.failf "post-swap query: %s" l)))

let test_server_graceful_drain () =
  let pa = build_prefix ~seed:2012 ~n:80 "drain" in
  Fun.protect
    ~finally:(fun () -> rm_prefix pa)
    (fun () ->
      let cfg = Server.default_config ~prefix:pa in
      let srv = ok_exn "start" (Server.start cfg) in
      let port = Server.port srv in
      let c = connect port in
      (* an in-flight session sees its request answered, then the server
         closes the connection and exits *)
      (match roundtrip c "QUERY S(NP)(VP) count_only=1" with
      | `Ok _ -> ()
      | `Err l -> Alcotest.failf "pre-drain query: %s" l);
      (match roundtrip c "SHUTDOWN" with
      | `Ok (l, _) -> Alcotest.(check string) "drain ack" "OK draining" l
      | `Err l -> Alcotest.failf "SHUTDOWN: %s" l);
      (* join returns: acceptor and workers exited *)
      Server.join srv;
      (* the drained server closed our connection... *)
      (match recv c with
      | exception End_of_file -> ()
      | l -> Alcotest.failf "expected EOF after drain, got %S" l);
      disconnect c;
      (* ... and the port no longer accepts *)
      match connect port with
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
      | c2 ->
          disconnect c2;
          Alcotest.fail "listen socket survived shutdown")

let test_batch_domains_clamped () =
  let trees = Si_grammar.Generator.corpus ~seed:7 ~n:30 () in
  let si = Si.build ~scheme:Coding.Filter ~mss:2 ~trees () in
  let b = Si.query_batch ~domains:64 si [| "S(NP)(VP)"; "NP(DT)(NN)" |] in
  Alcotest.(check int) "worker count clamped to cores"
    (min 64 (Domain.recommended_domain_count ()))
    (Array.length b.Si.domain_stats);
  Array.iter (fun a -> ignore (ok_exn "clamped answer" a)) b.Si.answers

let suite =
  [
    Alcotest.test_case "protocol: request parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol: limits override semantics" `Quick
      test_limits_of_opts;
    Alcotest.test_case "jsonx rendering" `Quick test_jsonx;
    Alcotest.test_case "admission: per-client token buckets" `Quick
      test_admission_quota;
    Alcotest.test_case "admission: brownout and shedding" `Quick
      test_admission_brownout_shed;
    Alcotest.test_case "admission: overflow evicts stalest, no amnesty" `Quick
      test_admission_stale_eviction;
    Alcotest.test_case "swap: refcounted generations drain" `Quick
      test_swap_refcount;
    Alcotest.test_case "swap: double release refused" `Quick
      test_swap_double_release;
    Alcotest.test_case "swap: failpoint-aborted swap keeps old index" `Quick
      test_swap_failpoints;
    Alcotest.test_case "server: wire session end-to-end" `Slow
      test_server_session;
    Alcotest.test_case "server: deadlines, partial, max_results" `Slow
      test_server_deadline_and_partial;
    Alcotest.test_case "server: quota rejection and shedding" `Slow
      test_server_quota_and_shed;
    Alcotest.test_case "server: zero-downtime swap under load" `Slow
      test_server_swap_under_load;
    Alcotest.test_case "server: graceful drain on shutdown" `Slow
      test_server_graceful_drain;
    Alcotest.test_case "batch: domain count clamped to cores" `Quick
      test_batch_domains_clamped;
  ]
