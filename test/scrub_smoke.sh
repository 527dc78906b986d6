#!/usr/bin/env bash
# Self-healing integrity acceptance harness (ISSUE 10, DESIGN.md §15).
#
# Four gates:
#   1. live server over a bitflipped SIDX4 postings region — every query
#      (including the one that discovers the damage) answers OK with the
#      exact count, marked degraded=integrity; HEALTH flips to DEGRADED;
#      REPAIR rebuilds from the corpus store and rides the generation
#      swap with zero dropped in-flight queries, after which answers and
#      HEALTH are clean;
#   2. the SCRUB wire verb localizes the damage and SCRUB repair=1 heals
#      in one request;
#   3. the background scrubber (--scrub-interval) with --auto-repair
#      converges a corrupted server to a clean generation with no client
#      action at all;
#   4. kill at EVERY scrub/repair failpoint (exit 42) — the prefix must
#      stay loadable and oracle-correct (served via the fallback while
#      damaged), and a clean retry must converge to a CRC-clean index.
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

say() { echo "scrub_smoke: $*"; }
fail() { echo "scrub_smoke FAIL: $*" >&2; exit 1; }

# ---- fixtures ------------------------------------------------------------
"$TOOL" gen -n 200 --seed 93 -o "$DIR/corpus.penn" 2>/dev/null
PFX="$DIR/ix"
"$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$PFX" \
  --scheme root-split --mss 3 --format sidx4 >/dev/null

Q='S(NP(DT)(NN))(VP)'
CLEAN=$("$TOOL" query --prefix "$PFX" "$Q" | head -1 | awk '{print $1}')
[ -n "$CLEAN" ] || fail "no baseline count"

for ext in .idx .trees .labels .meta; do
  cp "$PFX$ext" "$DIR/pristine$ext"
done
reset_state() {
  for ext in .idx .trees .labels .meta; do
    cp "$DIR/pristine$ext" "$PFX$ext"
  done
  rm -f "$PFX.wal"
}

# flip one byte in the middle of the .idx — inside a lazily-verified body
# region (the header/footer CRCs still pass, so the O(1) open succeeds
# and the damage is discovered live, exactly the §15 window)
corrupt_idx() {
  size=$(stat -c %s "$PFX.idx")
  printf '\xa5' | dd of="$PFX.idx" bs=1 seek=$((size / 2)) conv=notrunc 2>/dev/null
}

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

# ---- 1. quarantine fallback on a live server -----------------------------
say "live server over a bitflipped postings region: exact degraded answers"

reset_state
corrupt_idx
start_server

# the DISCOVERING query itself is answered — exact, marked degraded
out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$CLEAN truncated=0 gen=1" <<<"$out" || fail "first query not exact: $out"
grep -q "degraded=integrity" <<<"$out" || fail "first query not marked degraded: $out"

# so is every later one
out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$CLEAN .*degraded=integrity" <<<"$out" || fail "second query: $out"

out=$(req "HEALTH")
grep -q "^DEGRADED .*integrity=degraded quarantined=1" <<<"$out" \
  || fail "HEALTH not degraded: $out"

out=$(req "STATS")
grep -qF '"integrity":{"state":"degraded","quarantined":1' <<<"$out" \
  || fail "STATS integrity section: $out"

# zero dropped queries through the repair swap: clients hammer while the
# generation flips under them
QPIDS=()
for i in $(seq 30); do
  req "QUERY $Q count_only=1" >>"$DIR/during.log" 2>&1 &
  QPIDS+=($!)
done
out=$(req "REPAIR")
grep -q "OK repaired=200 gen=2" <<<"$out" || fail "REPAIR ack: $out"
wait "${QPIDS[@]}"
[ "$(grep -c "^OK n=$CLEAN " "$DIR/during.log")" = 30 ] \
  || fail "queries dropped during repair: $(sort "$DIR/during.log" | uniq -c)"

# the repaired generation answers clean — no degraded marker, no fallback
out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$CLEAN truncated=0 gen=2" <<<"$out" || fail "post-repair query: $out"
grep -q "degraded=integrity" <<<"$out" && fail "post-repair still degraded: $out"

out=$(req "HEALTH")
grep -q "^OK gen=2 .*integrity=ok quarantined=0" <<<"$out" \
  || fail "HEALTH not clean after repair: $out"

stop_server

# the repaired prefix is durable and CRC-clean on disk
"$TOOL" scrub --prefix "$PFX" | grep -q "clean=1" || fail "repaired prefix not clean"
"$TOOL" query --prefix "$PFX" "$Q" --check-oracle >/dev/null || fail "oracle after repair"

# ---- 2. the SCRUB verb ---------------------------------------------------
say "SCRUB verb: localizes damage, repair=1 heals in one request"

reset_state
corrupt_idx
start_server

# a healthy-looking server (nothing touched the damage yet); the scrub
# walks the regions and quarantines
out=$(req "SCRUB")
grep -q "^OK state=degraded quarantined=1 .*clean=0" <<<"$out" \
  || fail "SCRUB did not find the damage: $out"

out=$(req "SCRUB repair=1")
grep -q "^OK state=repaired quarantined=0 .*repaired=200 gen=2" <<<"$out" \
  || fail "SCRUB repair=1: $out"

out=$(req "SCRUB")
grep -q "^OK state=ok quarantined=0 .*clean=1" <<<"$out" \
  || fail "post-repair SCRUB not clean: $out"

out=$(req "HEALTH")
grep -q "^OK gen=2 .*integrity=ok quarantined=0" <<<"$out" || fail "HEALTH: $out"

stop_server

# ---- 3. background scrubber + auto-repair --------------------------------
say "background scrubber self-heals with no client action"

reset_state
corrupt_idx
start_server --scrub-interval 0.2 --auto-repair 1

healed=""
for _ in $(seq 100); do
  out=$(req "HEALTH")
  if grep -q "^OK gen=2 .*integrity=ok quarantined=0" <<<"$out"; then
    healed=yes
    break
  fi
  sleep 0.1
done
[ -n "$healed" ] || fail "scrubber never auto-repaired: $(req HEALTH)"

out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$CLEAN truncated=0 gen=2" <<<"$out" || fail "post-auto-repair: $out"

out=$(req "STATS")
grep -qF '"integrity":{"state":"ok","quarantined":0' <<<"$out" \
  || fail "STATS after auto-repair: $out"
grep -q '"scrub_passes":[1-9]' <<<"$out" || fail "no scrub passes counted: $out"
grep -q '"repairs":1' <<<"$out" || fail "repair not counted: $out"

stop_server

# ---- 4. kill at every scrub/repair failpoint -----------------------------
say "kill at every scrub/repair failpoint"

mapfile -t POINTS < <(
  "$TOOL" failpoints | awk '/^  (scrub\.|si\.repair\.)/ { print $1 }'
)
if [ "${#POINTS[@]}" -lt 5 ]; then
  fail "expected >= 5 scrub/repair failpoints, got: ${POINTS[*]}"
fi

for point in "${POINTS[@]}"; do
  reset_state
  corrupt_idx
  set +e
  SI_FAILPOINTS="$point=exit:42" \
    "$TOOL" scrub --prefix "$PFX" --repair >/dev/null 2>&1
  code=$?
  set -e
  [ "$code" = 42 ] || fail "$point: never fired (exit $code)"

  # recovery gate: whatever window the kill hit, the prefix stays
  # loadable and answers the oracle — via the fallback while the damage
  # is still there, natively once the publish landed
  out=$("$TOOL" query --prefix "$PFX" "$Q" --check-oracle) \
    || fail "$point: prefix does not serve after crash"
  grep -q 'oracle: OK' <<<"$out" || fail "$point: oracle mismatch: $out"
  [ "$(head -1 <<<"$out" | awk '{print $1}')" = "$CLEAN" ] \
    || fail "$point: wrong count after crash: $out"

  # the clean retry converges to a CRC-clean index
  "$TOOL" scrub --prefix "$PFX" --repair >/dev/null
  "$TOOL" scrub --prefix "$PFX" | grep -q "clean=1" \
    || fail "$point: retry did not converge"
  "$TOOL" query --prefix "$PFX" "$Q" --check-oracle >/dev/null \
    || fail "$point: oracle after retry"
  say "  $point: recovered"
done

say "PASS: quarantine fallback, SCRUB/REPAIR verbs, auto-heal, ${#POINTS[@]} crash points"
