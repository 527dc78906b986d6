(* A JSON parser for the benchmark's inputs: BENCHMARK.json (metric
   names, units, directions, bounds), the server's STATS reply and result
   files for [compare].  Values are [Si_serve.Jsonx.t], whose
   [to_string] writes every JSON file and line the benchmark emits. *)

module J = Si_serve.Jsonx

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; skip ())
  in
  let expect c = skip (); if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let lit word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            if code < 128 then Buffer.add_char b (Char.chr code)
            else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      end
      else (Buffer.add_char b c; go ())
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; J.Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; J.Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; J.Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; J.Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> J.Str (str ())
    | 't' -> lit "true" (J.Bool true)
    | 'f' -> lit "false" (J.Bool false)
    | 'n' -> lit "null" J.Null
    | _ -> (
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr pos
        done;
        let lexeme = String.sub s start (!pos - start) in
        match int_of_string_opt lexeme with
        | Some i -> J.Int i
        | None -> (
            match float_of_string_opt lexeme with
            | Some f when !pos > start -> J.Float f
            | _ -> fail "bad number"))
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let of_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let to_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string v);
      output_char oc '\n')

let member k = function J.Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function J.Arr xs -> xs | _ -> []
let to_str = function J.Str s -> Some s | _ -> None
let to_num = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None
