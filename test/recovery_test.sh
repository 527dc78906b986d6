#!/usr/bin/env bash
# Crash-recovery acceptance harness (ISSUE 5).
#
# For every save-path injection point in the si_tool failpoints catalogue,
# kill a rebuild with a simulated crash (exit:42) at that point and assert
# the pre-existing published index is untouched: all four files
# byte-identical, the prefix loads, and queries still equal the oracle.
# Then one clean rebuild must succeed over the littered prefix and leave
# no .tmp / .new staging files behind.
set -euo pipefail

TOOL="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

say() { echo "recovery_test: $*"; }

"$TOOL" gen -n 400 --seed 51 -o "$DIR/corpus.penn" 2>/dev/null
PFX="$DIR/ix"
"$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$PFX" \
  --scheme root-split --mss 3 >/dev/null

QUERY='S(NP(DT)(NN))(VP)'
for ext in .idx .trees .labels .meta; do
  cp "$PFX$ext" "$DIR/pristine$ext"
done

# the save-path points, straight from the tool's own catalogue — a new
# injection point in the save sequence is covered here automatically
mapfile -t POINTS < <(
  "$TOOL" failpoints | awk '/^  (builder|si)\.save\./ { print $1 }'
)
if [ "${#POINTS[@]}" -lt 5 ]; then
  echo "FAIL: expected >= 5 save-path failpoints, got: ${POINTS[*]}" >&2
  exit 1
fi

for point in "${POINTS[@]}"; do
  set +e
  out="$("$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$PFX" \
    --scheme root-split --mss 3 --failpoints "$point=exit:42" 2>&1)"
  code=$?
  set -e
  if [ "$code" != 42 ]; then
    echo "FAIL: $point: expected simulated crash (exit 42), got $code" >&2
    echo "$out" >&2
    exit 1
  fi
  # the published files survived the crash byte-for-byte
  for ext in .idx .trees .labels .meta; do
    cmp -s "$PFX$ext" "$DIR/pristine$ext" || {
      echo "FAIL: $point: $PFX$ext changed under a crashed build" >&2
      exit 1
    }
  done
  # ... and the index still answers correctly
  out="$("$TOOL" query --prefix "$PFX" "$QUERY" --check-oracle)"
  grep -q 'oracle: OK' <<<"$out" || {
    echo "FAIL: $point: index no longer answers after crash: $out" >&2
    exit 1
  }
  say "crash at $point: old index intact, oracle OK"
done

# a mixed file set — crash mid-publish, simulated by splicing in an .idx
# from a different corpus — must be refused, not silently answered
"$TOOL" gen -n 400 --seed 52 -o "$DIR/other.penn" 2>/dev/null
"$TOOL" build --corpus "$DIR/other.penn" --prefix "$DIR/other" \
  --scheme root-split --mss 3 >/dev/null
cp "$DIR/other.idx" "$PFX.idx"
set +e
out="$("$TOOL" query --prefix "$PFX" "$QUERY" 2>&1)"
code=$?
set -e
if [ "$code" != 5 ] || ! grep -q 'mixed file set' <<<"$out"; then
  echo "FAIL: torn publish not detected (exit $code): $out" >&2
  exit 1
fi
say "torn publish detected (schema mismatch, exit 5)"
cp "$DIR/pristine.idx" "$PFX.idx"

# recovery: one clean rebuild over the littered prefix repairs everything
"$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$PFX" \
  --scheme root-split --mss 3 >/dev/null
out="$("$TOOL" query --prefix "$PFX" "$QUERY" --check-oracle)"
grep -q 'oracle: OK' <<<"$out" || {
  echo "FAIL: clean rebuild after crashes is broken: $out" >&2
  exit 1
}
litter="$(find "$DIR" -name '*.tmp' -o -name '*.new' | sort)"
if [ -n "$litter" ]; then
  echo "FAIL: staging litter survived the clean rebuild:" >&2
  echo "$litter" >&2
  exit 1
fi
say "clean rebuild repaired the prefix, no staging litter"

echo "recovery_test: OK"
