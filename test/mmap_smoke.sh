#!/usr/bin/env bash
# mmap-smoke (ISSUE 7): scale gate for the SIDX4 mapped backend.
#
#   1. O(1) open — `si_tool openbench` on a 2 000-tree and a 20 000-tree
#      SIDX4 index: the large open must stay under a fixed wall-clock
#      ceiling AND within a small factor of the small open (flat in
#      scale).
#   2. Exact at scale — `query --check-oracle` over the 20 000-tree
#      corpus: the mapped answers must equal the brute-force matcher's.
#   3. Live swap SIDX4 -> a freshly rebuilt SIDX4 generation — a serving
#      process is swapped while two client loops hammer it: zero dropped
#      in-flight queries, identical counts across the generation
#      boundary, and post-swap STATS must report the mapped backend.
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

fail() { echo "mmap_smoke FAIL: $*" >&2; exit 1; }

# generous CI-runner ceiling; locally the 20k mapped open is < 1 ms
OPEN_CEILING_MS=50
# "flat in scale": 10x the trees may cost at most this factor in open time
FLATNESS_FACTOR=8

# ---- fixtures ------------------------------------------------------------
echo "== building corpora (2k / 20k trees) =="
"$TOOL" gen -n 2000  --seed 2012 -o "$DIR/small.penn" 2>/dev/null
"$TOOL" gen -n 20000 --seed 2012 -o "$DIR/big.penn"   2>/dev/null

"$TOOL" build --corpus "$DIR/small.penn" --prefix "$DIR/small4" \
  --scheme interval --mss 3 --format sidx4 >/dev/null
"$TOOL" build --corpus "$DIR/big.penn" --prefix "$DIR/big4" \
  --scheme interval --mss 3 --format sidx4 >/dev/null
"$TOOL" build --corpus "$DIR/big.penn" --prefix "$DIR/big4b" \
  --scheme interval --mss 3 >/dev/null

open_min() { # open_min PREFIX EXPECTED_BACKEND
  local out
  out=$("$TOOL" openbench --prefix "$1" --repeat 7)
  grep -q "backend=$2" <<<"$out" || fail "openbench $1: want backend=$2: $out"
  sed -n 's/.*open_ms_min=\([0-9.]*\).*/\1/p' <<<"$out"
}

# ---- 1. O(1) open --------------------------------------------------------
small4_ms=$(open_min "$DIR/small4" mapped)
big4_ms=$(open_min "$DIR/big4" mapped)
echo "open_ms_min: sidx4@2k=$small4_ms sidx4@20k=$big4_ms"

awk -v b="$big4_ms" -v c="$OPEN_CEILING_MS" 'BEGIN{exit !(b < c)}' \
  || fail "mapped open at 20k trees over ceiling: ${big4_ms}ms >= ${OPEN_CEILING_MS}ms"
awk -v s="$small4_ms" -v b="$big4_ms" -v f="$FLATNESS_FACTOR" \
  'BEGIN{exit !(b < f * s)}' \
  || fail "mapped open not flat in scale: 2k=${small4_ms}ms -> 20k=${big4_ms}ms"

# ---- 2. exact at scale ---------------------------------------------------
count_of() { # count_of PREFIX QUERY  -> match count
  "$TOOL" query --prefix "$1" "$2" | head -1 | awk '{print $1}'
}
for q in 'S(NP)(VP)' 'S(NP(DT)(NN))(VP)' 'S(//PP(IN)(NP))'; do
  out=$("$TOOL" query --prefix "$DIR/big4" "$q" --check-oracle) \
    || fail "oracle mismatch at 20k for $q: $out"
  grep -q 'oracle: OK' <<<"$out" || fail "no oracle verdict at 20k for $q: $out"
  c=$(head -1 <<<"$out" | awk '{print $1}')
  [ "$c" -gt 0 ] || fail "empty result for $q — fixture too sparse to be a gate"
done
echo "oracle-exact at 20k trees OK"

# ---- 3. live swap to a rebuilt generation, zero dropped queries ----------
Q='S(NP(DT)(NN))(VP)'
EXPECT=$(count_of "$DIR/big4" "$Q")

"$TOOL" serve --prefix "$DIR/big4" --listen 0 >"$DIR/server.log" 2>&1 &
SRV_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' "$DIR/server.log" | head -1)
  [ -n "$PORT" ] && break
  kill -0 "$SRV_PID" 2>/dev/null || fail "server died on startup: $(cat "$DIR/server.log")"
  sleep 0.05
done
[ -n "$PORT" ] || fail "server never reported its port"

req() { # req "REQUEST LINE"
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect to port $PORT"
  printf '%s\nQUIT\n' "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}

client_loop() { # client_loop OUTFILE
  local i
  for i in $(seq 40); do
    req "QUERY $Q count_only=1" >>"$1" || true
  done
}
: >"$DIR/c1.out"; : >"$DIR/c2.out"
client_loop "$DIR/c1.out" & C1=$!
client_loop "$DIR/c2.out" & C2=$!
sleep 0.15
out=$(req "SWAP $DIR/big4b")
grep -q 'OK gen=2' <<<"$out" || fail "SWAP to the rebuilt generation: $out"
wait "$C1" "$C2"

answers=$(grep -h '^OK n=' "$DIR/c1.out" "$DIR/c2.out" | wc -l)
[ "$answers" = 80 ] || fail "dropped requests during the swap: $answers/80 answered"
# same corpus on both sides of the swap: every answer must carry the
# oracle count whichever generation served it
bad=$(grep -h '^OK n=' "$DIR/c1.out" "$DIR/c2.out" \
  | grep -v -e "n=$EXPECT truncated=0 gen=1" -e "n=$EXPECT truncated=0 gen=2" || true)
[ -z "$bad" ] || fail "wrong answer(s) across the swap: $bad"

out=$(req "QUERY $Q count_only=1")
grep -q "OK n=$EXPECT truncated=0 gen=2" <<<"$out" || fail "post-swap answer: $out"
out=$(req "STATS")
grep -qF '"backend":"mapped"' <<<"$out" || fail "post-swap STATS not mapped: $out"
out=$(req "SHUTDOWN")
grep -q '^OK draining' <<<"$out" || fail "SHUTDOWN: $out"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
grep -q 'shutdown complete' "$DIR/server.log" || fail "no graceful drain in log"

echo "mmap_smoke OK: 20k-tree mapped open=${big4_ms}ms (2k: ${small4_ms}ms), swap served 80/80"
