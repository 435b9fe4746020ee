#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it with the
# given arguments. Run from the repository root, e.g.
#   bash bench/perf/run.sh --workload report --seed 1 --seconds 10 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "bench/perf/run.sh: run from the root of an evolvenet checkout" >&2
  exit 2
fi
# keep every build product inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/main.exe >&2
exec ./_build/default/bench/perf/main.exe "$@"
