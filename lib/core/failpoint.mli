(** Deterministic fault injection for robustness tests.

    A failpoint is a named code location ({!hit} / {!read_len} call
    site); the registry arms actions against names, from the
    [SI_FAILPOINTS] environment variable, a CLI flag, or directly in
    tests.  Nothing is armed by default and an unarmed {!hit} costs one
    load of a flag, so the points stay in production code.

    {b Spec grammar} ([;]-separated, e.g.
    ["builder.save.rename=exit:42@1;cursor.decode=fail@3"]):

    {v name=ACTION[@TRIGGER] v}

    Actions:
    - [fail] — raise [Si_error.Error (Internal _)]: a typed, catchable
      internal fault (exercises the fault-isolation boundaries);
    - [sys] — raise [Sys_error]: an injected I/O failure (exercises the
      error-cleanup paths, e.g. atomic save rollback);
    - [exit:CODE] — [Unix._exit CODE]: a simulated crash — no cleanup, no
      finalizers, exactly like a kill (the crash-recovery harness);
    - [delay:MS] — sleep MS milliseconds, then continue (latency
      injection);
    - [short:N] — cap the byte count read at a {!read_len} site to N (a
      torn read); ignored at {!hit} sites.

    Triggers: [@N] fire on the Nth hit only (default [@1]); [@N+] fire on
    every hit from the Nth; [@p:PCT:SEED] fire with probability PCT%
    from a splitmix64 stream seeded with SEED — fully deterministic, so a
    failing fuzz run reproduces exactly.

    Hit counters are mutex-guarded: domains racing through a shared armed
    registry count consistently. *)

val arm : string -> (unit, string) result
(** Parse a spec and arm it (additive over previously armed points).
    [Error] describes the first malformed clause; nothing of a malformed
    spec is armed. *)

val arm_exn : string -> unit
(** {!arm}, raising [Invalid_argument] — for test setup. *)

val env_var : string
(** ["SI_FAILPOINTS"]. *)

val arm_from_env : unit -> (unit, string) result
(** Arm from [SI_FAILPOINTS] if set; [Ok ()] when unset. *)

val clear : unit -> unit
(** Disarm everything and reset hit counters. *)

val active : unit -> bool

val hit : string -> unit
(** Fire the failpoint [name] if armed (see the action table above).
    No-op when nothing is armed. *)

val read_len : string -> int -> int
(** [read_len name len] — [len], capped at [N] if [name] is armed with
    [short:N] and the trigger fires.  Other armed actions fire as in
    {!hit}. *)

val known : (string * string) list
(** The registered injection points, [(name, where-it-fires)] — the
    crash-recovery harness iterates these ([si_tool failpoints] prints
    them). *)
