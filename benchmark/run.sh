#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments.
# Run from the root of the repository:
#   bash benchmark/run.sh --workload math-eqsat --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# No shared build cache: the build reads and writes only this tree. Its
# output goes to stderr, because the last line of stdout is the result.
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
