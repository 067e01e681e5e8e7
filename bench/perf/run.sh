#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the two CLIs and the
# harness from source (dune's shared cache off, so nothing is written
# outside the checkout), then runs the harness with the given arguments.
#   bash bench/perf/run.sh --workload cli-bench-id --seed 7 --seconds 25 --trace 0
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perf: not a gsino checkout (no dune-project, lib/ or bin/ next to bench/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env --readonly 2>/dev/null)" || true
fi
DUNE_CACHE=disabled dune build ./bin/gsino_run.exe ./bin/gsino_serve.exe \
  ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
