#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it; every argument
# passes through to main.exe (see README.md), e.g.
#   bash e2e_bench/run.sh --workload paper-join --seed 1 --seconds 12 --trace 0
# Build output goes to stderr, so the result line stays the last line of
# stdout. A failed build exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every file the build writes inside the repository: no shared dune
# cache, and the compilers' temporary files under .bench_run/.
export DUNE_CACHE=disabled
mkdir -p .bench_run/tmp
export TMPDIR="$PWD/.bench_run/tmp"
dune build --root . --display quiet ./e2e_bench/main.exe >&2
exec ./_build/default/e2e_bench/main.exe "$@"
