#!/usr/bin/env bash
# Build the program under test and the benchmark from source, then run
# the benchmark with the given arguments from the repository root:
#   bash sibench/run.sh --workload serve-warm --seed 2012 --seconds 20 --trace 0
set -euo pipefail
dune build --root . --display quiet ./bin/si_tool.exe ./sibench/si_bench.exe 1>&2
exec ./_build/default/sibench/si_bench.exe "$@"
