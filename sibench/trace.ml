(* Spans recorded by the traced run, kept in memory and written at exit.
   Every span is taken in the benchmark's own code, around a call into
   one layer's public functions or around one request on the wire; the
   program under test is never instrumented. *)

type span = {
  id : int;
  name : string;
  start : int;  (** ns, CLOCK_MONOTONIC *)
  stop : int;
  parent : int;  (** span id, -1 at a root *)
  req : int;  (** request (or replayed query) the span belongs to *)
}

let enabled = ref false
let spans : span list ref = ref []
let next = ref 0

let record ?(parent = -1) ~req name start stop =
  if not !enabled then -1
  else begin
    let id = !next in
    incr next;
    spans := { id; name; start; stop; parent; req } :: !spans;
    id
  end

(* An open span: its id is fixed when it opens, so spans recorded inside
   it can name it as their parent. *)
type opened = { oid : int; oname : string; ostart : int; oparent : int; oreq : int }

let enter ?(parent = -1) ~req name =
  let oid = if !enabled then (incr next; !next - 1) else -1 in
  { oid; oname = name; ostart = Si_core.Monotonic.now_ns (); oparent = parent; oreq = req }

let leave o =
  if !enabled then
    spans :=
      { id = o.oid; name = o.oname; start = o.ostart; stop = Si_core.Monotonic.now_ns ();
        parent = o.oparent; req = o.oreq }
      :: !spans

(* [time name ~req f] runs [f], recording a span around it when tracing;
   returns [f]'s result and the elapsed ns. *)
let time ?parent ~req name f =
  let t0 = Si_core.Monotonic.now_ns () in
  let r = f () in
  let t1 = Si_core.Monotonic.now_ns () in
  ignore (record ?parent ~req name t0 t1);
  (r, t1 - t0)

let write path =
  let module J = Si_serve.Jsonx in
  let span s =
    J.Obj
      [ ("id", J.Int s.id); ("name", J.Str s.name); ("start_ns", J.Int s.start); ("end_ns", J.Int s.stop);
        ("parent", J.Int s.parent); ("req", J.Int s.req) ]
  in
  Json.to_file path (J.Obj [ ("spans", J.Arr (List.rev_map span !spans)) ])
