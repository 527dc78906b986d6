#!/usr/bin/env bash
# WAL incremental-insert acceptance harness (ISSUE 8).
#
# Three gates:
#   1. live server — INSERT over the wire is visible to the very next
#      QUERY, an explicit CHECKPOINT folds it through a generation swap,
#      and the --checkpoint-records threshold auto-folds;
#   2. kill at EVERY WAL/checkpoint failpoint (exit 42) — the index must
#      reopen equal to the pre-insert or post-insert state, answer the
#      oracle, and finish the interrupted fold on the next clean attempt;
#   3. a torn or CRC-failing WAL tail is never replayed as a record, and
#      never prevents the index from serving.
set -euo pipefail

TOOL="$1"
DIR="$(mktemp -d)"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

say() { echo "wal_smoke: $*"; }
fail() { echo "wal_smoke FAIL: $*" >&2; exit 1; }

# ---- fixtures ------------------------------------------------------------
"$TOOL" gen -n 200 --seed 91 -o "$DIR/corpus.penn" 2>/dev/null
PFX="$DIR/ix"
"$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$PFX" \
  --scheme root-split --mss 3 >/dev/null

Q='S(NP(DT)(NN))(VP)'
# one inserted tree that the probe query definitely matches, so the
# pre-insert and post-insert states answer with different counts
TREE='(S (NP (DT the) (NN cat)) (VP (VBZ sits) (NP (DT the) (NN mat))))'
echo "$TREE" > "$DIR/extra.penn"

PRE=$("$TOOL" query --prefix "$PFX" "$Q" | head -1 | awk '{print $1}')
POST=$((PRE + 1))

for ext in .idx .trees .labels .meta; do
  cp "$PFX$ext" "$DIR/pristine$ext"
done
reset_state() {
  for ext in .idx .trees .labels .meta; do
    cp "$DIR/pristine$ext" "$PFX$ext"
  done
  rm -f "$PFX.wal"
}

count() { "$TOOL" query --prefix "$PFX" "$Q" | head -1 | awk '{print $1}'; }

# ---- 1. live server ------------------------------------------------------
say "live server: INSERT visible immediately, CHECKPOINT swaps"

start_server() { # start_server [extra serve flags...]
  "$TOOL" serve --prefix "$PFX" --listen 0 --workers 2 "$@" \
    >"$DIR/server.log" 2>&1 &
  SRV_PID=$!
  PORT=""
  for _ in $(seq 100); do
    PORT=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' "$DIR/server.log" | head -1)
    [ -n "$PORT" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || fail "server died on startup: $(cat "$DIR/server.log")"
    sleep 0.05
  done
  [ -n "$PORT" ] || fail "server never reported its port: $(cat "$DIR/server.log")"
}

stop_server() {
  if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
    kill "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
  fi
  SRV_PID=""
}

req() { # one request per connection; prints every response line
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect to port $PORT"
  printf '%s\nQUIT\n' "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}

start_server

out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$PRE truncated=0 gen=1" <<<"$out" || fail "pre-insert count: $out"

out=$(req "INSERT $TREE")
grep -q "OK n=201 pending=1 gen=1" <<<"$out" || fail "INSERT ack: $out"

# the inserted tree answers the very next query — no rebuild, no reopen
out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$POST truncated=0 gen=1" <<<"$out" || fail "post-insert count: $out"

out=$(req "CHECKPOINT")
grep -q "OK merged=1 gen=2" <<<"$out" || fail "CHECKPOINT ack: $out"

out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$POST truncated=0 gen=2" <<<"$out" || fail "post-checkpoint count: $out"

out=$(req "STATS")
grep -qF '"wal":{"inserts":1,"checkpoints":1,"checkpoint_failures":0' <<<"$out" \
  || fail "STATS wal section: $out"

out=$(req "INSERT (not a tree")
grep -q "ERR bad_request" <<<"$out" || fail "malformed INSERT accepted: $out"

stop_server

# the folded set is durable: a cold reopen answers the post-insert count
[ "$(count)" = "$POST" ] || fail "cold reopen after server fold: $(count) != $POST"
"$TOOL" query --prefix "$PFX" "$Q" --check-oracle >/dev/null || fail "oracle after fold"

say "live server: --checkpoint-records threshold auto-folds"
reset_state
start_server --checkpoint-records 2
req "INSERT $TREE" >/dev/null
out=$(req "INSERT $TREE")
grep -q "pending=2" <<<"$out" || fail "second INSERT ack: $out"
# the second insert crossed the threshold: the server folded and swapped
out=$(req "HEALTH")
grep -q 'gen=2' <<<"$out" || fail "auto-checkpoint did not swap: $out"
out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$((PRE + 2)) " <<<"$out" || fail "post-auto-fold count: $out"
stop_server

# ---- 2. kill at every WAL/checkpoint failpoint ---------------------------
say "kill at every WAL/checkpoint failpoint"

mapfile -t POINTS < <(
  "$TOOL" failpoints | awk '/^  (wal\.|si\.checkpoint\.)/ { print $1 }'
)
if [ "${#POINTS[@]}" -lt 5 ]; then
  fail "expected >= 5 WAL/checkpoint failpoints, got: ${POINTS[*]}"
fi

for point in "${POINTS[@]}"; do
  reset_state
  # drive insert -> checkpoint with the point armed; whichever stage hosts
  # the point dies with the simulated crash (exit 42)
  crashes=0
  set +e
  SI_FAILPOINTS="$point=exit:42" \
    "$TOOL" insert --prefix "$PFX" --corpus "$DIR/extra.penn" >/dev/null 2>&1
  c_ins=$?
  set -e
  [ "$c_ins" = 42 ] && crashes=$((crashes + 1))
  if [ "$c_ins" = 0 ]; then
    set +e
    SI_FAILPOINTS="$point=exit:42" \
      "$TOOL" checkpoint --prefix "$PFX" >/dev/null 2>&1
    c_ck=$?
    set -e
    [ "$c_ck" = 42 ] && crashes=$((crashes + 1))
  fi
  [ "$crashes" = 1 ] || fail "$point: never fired (insert=$c_ins)"

  # recovery gate: the index reopens, answers the oracle, and the count is
  # exactly the pre-insert or post-insert state — nothing torn, nothing
  # double-applied
  out=$("$TOOL" query --prefix "$PFX" "$Q" --check-oracle) \
    || fail "$point: index does not reopen after crash"
  grep -q 'oracle: OK' <<<"$out" || fail "$point: oracle mismatch: $out"
  n=$(head -1 <<<"$out" | awk '{print $1}')
  if [ "$n" != "$PRE" ] && [ "$n" != "$POST" ]; then
    fail "$point: count $n is neither pre ($PRE) nor post ($POST)"
  fi

  # the interrupted pipeline completes cleanly on the next attempt
  if [ "$n" = "$PRE" ] && [ "$c_ins" != 0 ]; then
    "$TOOL" insert --prefix "$PFX" --corpus "$DIR/extra.penn" >/dev/null
  fi
  "$TOOL" checkpoint --prefix "$PFX" >/dev/null
  [ "$(count)" = "$POST" ] || fail "$point: clean retry did not converge"
  "$TOOL" query --prefix "$PFX" "$Q" --check-oracle >/dev/null \
    || fail "$point: oracle after clean retry"
  # the fold truncated the WAL back to its 8-byte header
  [ "$(stat -c %s "$PFX.wal")" = 8 ] || fail "$point: WAL not truncated"
  say "  $point: recovered (count $n -> $POST)"
done

# ---- 3. no torn WAL accepted ---------------------------------------------
say "torn and CRC-failing WAL tails are dropped, never replayed"

reset_state
"$TOOL" insert --prefix "$PFX" --corpus "$DIR/extra.penn" >/dev/null
[ "$(count)" = "$POST" ] || fail "setup insert"

# a crash mid-append leaves a partial frame: ignored, index still serves
printf '\x40\x00\x00\x00\xde\xad' >> "$PFX.wal"
out=$("$TOOL" query --prefix "$PFX" "$Q" --check-oracle)
grep -q 'oracle: OK' <<<"$out" || fail "torn tail broke the oracle: $out"
[ "$(head -1 <<<"$out" | awk '{print $1}')" = "$POST" ] \
  || fail "torn tail changed the answer: $out"

# a bit flip inside the record breaks its CRC: the record is dropped (back
# to the pre-insert answer), never served as data, never a crash
reset_state
"$TOOL" insert --prefix "$PFX" --corpus "$DIR/extra.penn" >/dev/null
printf '\xff' | dd of="$PFX.wal" bs=1 seek=20 conv=notrunc 2>/dev/null
out=$("$TOOL" query --prefix "$PFX" "$Q" --check-oracle)
grep -q 'oracle: OK' <<<"$out" || fail "CRC-failing record broke the oracle: $out"
[ "$(head -1 <<<"$out" | awk '{print $1}')" = "$PRE" ] \
  || fail "CRC-failing record was replayed: $out"

# ---- 4. checkpoint republishes the mapped backend consistently -----------
# regression: a checkpoint in a fresh process interns the WAL's labels
# before ever touching the mapped corpus, so its live id order diverges
# from the stored .labels order — the republished .trees store must be
# written in the published stored space, or the corpus (and the oracle)
# comes back mislabeled
say "sidx4 checkpoint: republished corpus store answers the oracle"

"$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$DIR/m4" \
  --scheme interval --mss 3 --format sidx4 >/dev/null
M4PRE=$("$TOOL" query --prefix "$DIR/m4" "$Q" | head -1 | awk '{print $1}')
"$TOOL" insert --prefix "$DIR/m4" "$TREE" >/dev/null
"$TOOL" checkpoint --prefix "$DIR/m4" >/dev/null
out=$("$TOOL" query --prefix "$DIR/m4" "$Q" --check-oracle) \
  || fail "sidx4 post-checkpoint oracle: $out"
[ "$(head -1 <<<"$out" | awk '{print $1}')" = "$((M4PRE + 1))" ] \
  || fail "sidx4 post-checkpoint count: $out"

say "PASS: live inserts, $(( ${#POINTS[@]} )) crash points, torn-WAL rejection, sidx4 refold"
