#!/usr/bin/env bash
# Acceptance flow of ISSUE 1: gen -> build --scheme root-split --mss 3 ->
# query returns the oracle's match set, for all three codings.
set -euo pipefail

TOOL="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$TOOL" gen -n 1000 --seed 2012 -o "$DIR/corpus.penn" 2>/dev/null

QUERIES=(
  'S(NP(DT)(NN))(VP)'
  'S(NP)(VP(//NP(NN)))'
  'NP(NN)(NN)'
  'S(//NP)(//NP)'
  'VP(VBZ)(NP(DT)(NN))'
)

for scheme in filter interval root-split; do
  "$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$DIR/ix-$scheme" \
    --scheme "$scheme" --mss 3 >/dev/null
  for q in "${QUERIES[@]}"; do
    out="$("$TOOL" query --prefix "$DIR/ix-$scheme" "$q" --check-oracle)"
    if ! grep -q 'oracle: OK' <<<"$out"; then
      echo "FAIL: scheme=$scheme query=$q" >&2
      echo "$out" >&2
      exit 1
    fi
  done
done

# the three codings also agree with each other on match counts
for q in "${QUERIES[@]}"; do
  counts=$(for scheme in filter interval root-split; do
    "$TOOL" query --prefix "$DIR/ix-$scheme" "$q" | head -1
  done | sort -u | wc -l)
  if [ "$counts" != 1 ]; then
    echo "FAIL: codings disagree on $q" >&2
    exit 1
  fi
done

# ---- failure modes & exit codes (README table) --------------------------
# 2 = bad query, 3 = corrupt index, 4 = i/o error
PFX="$DIR/ix-root-split"
cp "$PFX.idx" "$DIR/pristine.idx"

expect_exit() { # expect_exit CODE GREP_PATTERN CMD...
  local want="$1" pat="$2"; shift 2
  local out code
  set +e
  out="$("$@" 2>&1)"
  code=$?
  set -e
  if [ "$code" != "$want" ]; then
    echo "FAIL: expected exit $want, got $code: $*" >&2
    echo "$out" >&2
    exit 1
  fi
  if ! grep -q "$pat" <<<"$out"; then
    echo "FAIL: expected message matching '$pat': $out" >&2
    exit 1
  fi
}

# truncated index -> documented corruption exit code and message
head -c 100 "$DIR/pristine.idx" > "$PFX.idx"
expect_exit 3 'corrupt index' "$TOOL" query --prefix "$PFX" 'S(NP)(VP)'

# a single flipped bit in the header -> caught by its checksum at open,
# same contract (a flip in a body region is caught on first touch and
# answered from the corpus store instead — scrub_smoke.sh)
cp "$DIR/pristine.idx" "$PFX.idx"
byte=$(od -An -tu1 -j7 -N1 "$PFX.idx" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 1)))" \
  | dd of="$PFX.idx" bs=1 seek=7 conv=notrunc 2>/dev/null
expect_exit 3 'corrupt index' "$TOOL" query --prefix "$PFX" 'S(NP)(VP)'

# an .idx in a retired container (SIDX1-3 header) -> schema mismatch (5),
# asking for a rebuild
for magic in SIDX1 SIDX2 SIDX3; do
  { printf '%s\n' "$magic"; tail -c +7 "$DIR/pristine.idx"; } > "$PFX.idx"
  expect_exit 5 'rebuild the prefix' "$TOOL" query --prefix "$PFX" 'S(NP)(VP)'
done

# restore; syntax error -> 2, missing prefix -> 4
cp "$DIR/pristine.idx" "$PFX.idx"
expect_exit 2 'bad query' "$TOOL" query --prefix "$PFX" 'S((NP)'
expect_exit 4 'i/o error' "$TOOL" query --prefix "$DIR/no-such-prefix" 'S(NP)(VP)'

# the restored index still answers correctly after all that
out="$("$TOOL" query --prefix "$PFX" 'S(NP)(VP)' --check-oracle)"
grep -q 'oracle: OK' <<<"$out" || { echo "FAIL: restored index broken" >&2; exit 1; }

# ---- serving path: batch query and multi-domain throughput smoke ---------
BATCH="$DIR/batch.txt"
{
  echo '# serving smoke batch (200 queries)'
  echo ''
  for _ in $(seq 40); do printf '%s\n' "${QUERIES[@]}"; done
} > "$BATCH"

# one open, 200 oracle-checked evaluations, one answer line per query
out="$("$TOOL" query --prefix "$PFX" --queries "$BATCH" --check-oracle 2>"$DIR/batch.err")"
lines=$(grep -c "$(printf '\t')" <<<"$out")
if [ "$lines" != 200 ]; then
  echo "FAIL: batch query answered $lines/200 queries" >&2
  exit 1
fi
grep -q 'oracle: OK' "$DIR/batch.err" \
  || { echo "FAIL: batch oracle check missing" >&2; exit 1; }

# the same stream through the parallel evaluator, 2 domains (clamped to
# the core count on small machines — the reported width is the actual one)
cores=$(nproc 2>/dev/null || echo 1)
want_domains=$(( cores < 2 ? cores : 2 ))
out="$("$TOOL" serve --prefix "$PFX" --batch "$BATCH" --domains 2 2>/dev/null)"
for pat in 'queries=200' "domains=$want_domains" 'qps=' 'latency_ns p50=' 'cache hits='; do
  grep -q "$pat" <<<"$out" \
    || { echo "FAIL: serve output missing '$pat': $out" >&2; exit 1; }
done

# asking for far more domains than cores is clamped with a warning
err="$("$TOOL" serve --prefix "$PFX" --batch "$BATCH" --domains 64 2>&1 >/dev/null)"
grep -q 'clamping batch domains 64' <<<"$err" \
  || { echo "FAIL: no clamp warning for --domains 64: $err" >&2; exit 1; }

# ---- resource governance: deadlines, budgets, truncation ------------------
# 6 = timeout, 7 = resource exhausted; --partial degrades both to a
# truncated (but clean, exit 0) answer
expect_exit 6 'timeout' "$TOOL" query --prefix "$PFX" --deadline-ms 0 'S(//NP)(//NP)'
expect_exit 7 'resource exhausted' \
  "$TOOL" query --prefix "$PFX" --max-decoded-bytes 1 'S(NP)(VP)'
expect_exit 7 'join-steps' \
  "$TOOL" query --prefix "$PFX" --max-steps 1 'S(//NP)(//NP)'

out="$("$TOOL" query --prefix "$PFX" --deadline-ms 0 --partial 'S(NP)(VP)')"
grep -q '(truncated)' <<<"$out" \
  || { echo "FAIL: --partial did not flag truncation: $out" >&2; exit 1; }

# --max-results truncates at exactly N and says so (no error, no --partial)
out="$("$TOOL" query --prefix "$PFX" --max-results 3 'S(NP)(VP)')"
grep -q '^3 matches (truncated)' <<<"$out" \
  || { echo "FAIL: --max-results 3 gave: $out" >&2; exit 1; }

# serve under a zero deadline: fault-isolated, every slot errors, exit 0
out="$("$TOOL" serve --prefix "$PFX" --batch "$BATCH" --deadline-ms 0 2>/dev/null)"
grep -q 'errors=200' <<<"$out" \
  || { echo "FAIL: serve --deadline-ms 0 expected errors=200: $out" >&2; exit 1; }
# ... and with --partial the same batch degrades instead of erroring
out="$("$TOOL" serve --prefix "$PFX" --batch "$BATCH" --deadline-ms 0 --partial)"
grep -q 'errors=0 truncated=200' <<<"$out" \
  || { echo "FAIL: serve --partial expected truncated=200: $out" >&2; exit 1; }

# ---- failpoints: injected crashes must not hurt the published index -------
# a simulated crash right before the atomic rename (exit:42) kills the
# build, and the pre-existing index still answers with oracle equality
expect_exit 42 'failpoint' "$TOOL" build --corpus "$DIR/corpus.penn" \
  --prefix "$PFX" --scheme root-split --mss 3 \
  --failpoints 'builder.save.rename=exit:42'
out="$("$TOOL" query --prefix "$PFX" 'S(NP)(VP)' --check-oracle)"
grep -q 'oracle: OK' <<<"$out" \
  || { echo "FAIL: index broken after failpoint crash" >&2; exit 1; }

# same through the environment variable, crashing after all four files are
# staged but before any publish rename
SI_FAILPOINTS='si.save.siblings=exit:42' expect_exit 42 'failpoint' \
  "$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$PFX" \
  --scheme root-split --mss 3
out="$("$TOOL" query --prefix "$PFX" 'S(NP)(VP)' --check-oracle)"
grep -q 'oracle: OK' <<<"$out" \
  || { echo "FAIL: index broken after env-armed failpoint crash" >&2; exit 1; }

# a bad spec is a usage error (exit 2), armed either way
expect_exit 2 'bad --failpoints spec' "$TOOL" build --corpus "$DIR/corpus.penn" \
  --prefix "$PFX" --scheme root-split --mss 3 --failpoints 'nonsense'
SI_FAILPOINTS='x=bogus' expect_exit 2 'SI_FAILPOINTS' \
  "$TOOL" query --prefix "$PFX" 'S(NP)(VP)'

# the failpoints catalogue lists every injection site used above
out="$("$TOOL" failpoints)"
for name in builder.save.rename si.save.siblings builder.load.read; do
  grep -q "$name" <<<"$out" \
    || { echo "FAIL: failpoints catalogue missing $name" >&2; exit 1; }
done

# stats surfaces the block histogram and cache counters
out="$("$TOOL" stats --prefix "$PFX")"
grep -q 'block histogram' <<<"$out" \
  || { echo "FAIL: stats missing block histogram" >&2; exit 1; }
grep -q 'cache budget=' <<<"$out" \
  || { echo "FAIL: stats missing cache counters" >&2; exit 1; }

# stats --json emits the machine-readable schema the server's STATS verb
# shares (an "index" object with the same fields)
out="$("$TOOL" stats --prefix "$PFX" --json)"
for key in '"index"' '"scheme":"root-split"' '"mss":3' '"trees":1000' \
           '"postings"' '"posting_length_histogram"' '"block_histogram"' '"cache"'; do
  grep -qF "$key" <<<"$out" \
    || { echo "FAIL: stats --json missing $key: $out" >&2; exit 1; }
done
if command -v python3 >/dev/null; then
  python3 -c 'import json,sys; json.loads(sys.stdin.read())' <<<"$out" \
    || { echo "FAIL: stats --json is not valid JSON" >&2; exit 1; }
fi

# ---- SIDX4: mmap-resident backend ----------------------------------------
# SIDX4 is the only container: --format sidx4 builds byte-for-byte the
# default index (with its .trees corpus store, and no .dat copy of the
# corpus), any other --format is refused, answers stay oracle-identical
# under every coding, and stats reports the mapped backend with
# per-region CRC state
set +e
"$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$DIR/ix3" --format sidx3 \
  >/dev/null 2>&1
code=$?
set -e
[ "$code" != 0 ] || { echo "FAIL: build --format sidx3 accepted" >&2; exit 1; }
[ ! -e "$DIR/ix3.idx" ] || { echo "FAIL: refused build wrote an index" >&2; exit 1; }
for scheme in filter interval root-split; do
  P4="$DIR/ix4-$scheme"
  "$TOOL" build --corpus "$DIR/corpus.penn" --prefix "$P4" \
    --scheme "$scheme" --mss 3 --format sidx4 >/dev/null
  [ -f "$P4.trees" ] || { echo "FAIL: sidx4 build wrote no .trees" >&2; exit 1; }
  [ ! -e "$P4.dat" ] || { echo "FAIL: build wrote a .dat corpus copy" >&2; exit 1; }
  for ext in .idx .trees .labels .meta; do
    cmp -s "$P4$ext" "$DIR/ix-$scheme$ext" \
      || { echo "FAIL: --format sidx4 $scheme$ext differs from the default build" >&2; exit 1; }
  done
  for q in "${QUERIES[@]}"; do
    out="$("$TOOL" query --prefix "$P4" "$q" --check-oracle)"
    grep -q 'oracle: OK' <<<"$out" \
      || { echo "FAIL: sidx4 scheme=$scheme query=$q: $out" >&2; exit 1; }
  done
done

P4="$DIR/ix4-interval"
out="$("$TOOL" stats --prefix "$P4")"
for pat in 'backend=mapped' 'mmap mapped_bytes=' 'resident_estimate=' \
           'region idx/kindex' 'region idx/keydir' 'region idx/postings' \
           'region trees/offsets' 'region trees/trees' 'crc=lazy'; do
  grep -q "$pat" <<<"$out" \
    || { echo "FAIL: sidx4 stats missing '$pat': $out" >&2; exit 1; }
done

out="$("$TOOL" stats --prefix "$P4" --json)"
for key in '"backend":"mapped"' '"mapped_bytes"' '"mmap"' '"resident_estimate"' \
           '"regions"' '"verified":false'; do
  grep -qF "$key" <<<"$out" \
    || { echo "FAIL: sidx4 stats --json missing $key: $out" >&2; exit 1; }
done
if command -v python3 >/dev/null; then
  python3 -c 'import json,sys
j = json.loads(sys.stdin.read())
assert j["index"]["backend"] == "mapped"
assert j["index"]["mapped_bytes"] > 0
assert j["mmap"]["mapped_bytes"] == j["index"]["mapped_bytes"]
assert 0 <= j["mmap"]["resident_estimate"] <= j["mmap"]["mapped_bytes"]
names = {(r["file"], r["name"]) for r in j["mmap"]["regions"]}
assert names == {("idx","kindex"),("idx","keydir"),("idx","postings"),
                 ("trees","offsets"),("trees","trees")}, names' <<<"$out" \
    || { echo "FAIL: sidx4 stats --json schema check" >&2; exit 1; }
fi

# corruption contract holds for both mapped files (exit 3, clean message)
cp "$P4.idx" "$DIR/p4-pristine.idx"; cp "$P4.trees" "$DIR/p4-pristine.trees"
head -c 100 "$DIR/p4-pristine.idx" > "$P4.idx"
expect_exit 3 'corrupt index' "$TOOL" query --prefix "$P4" 'S(NP)(VP)'
cp "$DIR/p4-pristine.idx" "$P4.idx"
head -c 50 "$DIR/p4-pristine.trees" > "$P4.trees"
expect_exit 3 'corrupt index' "$TOOL" query --prefix "$P4" 'S(NP)(VP)'
cp "$DIR/p4-pristine.trees" "$P4.trees"
out="$("$TOOL" query --prefix "$P4" 'S(NP)(VP)' --check-oracle)"
grep -q 'oracle: OK' <<<"$out" \
  || { echo "FAIL: restored sidx4 index broken" >&2; exit 1; }

# openbench reports the backend and a parseable latency line
out="$("$TOOL" openbench --prefix "$P4" --repeat 2 --query 'S(NP)(VP)')"
for pat in 'open_ms_min=' 'backend=mapped' 'first_query_ms=' 'matches='; do
  grep -q "$pat" <<<"$out" \
    || { echo "FAIL: openbench missing '$pat': $out" >&2; exit 1; }
done

# the serving path accepts a mapped prefix (batch mode smoke)
out="$("$TOOL" serve --prefix "$P4" --batch "$BATCH" 2>/dev/null)"
grep -q 'queries=200' <<<"$out" \
  || { echo "FAIL: serve --batch over sidx4: $out" >&2; exit 1; }

echo "cli_test: OK"
