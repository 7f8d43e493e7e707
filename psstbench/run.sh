#!/usr/bin/env bash
# Builds the psst binary and the benchmark from source into .bench_build,
# then runs one benchmark invocation (see psstbench/README.md):
#
#   bash psstbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash psstbench/run.sh compare A.jsonl B.jsonl
#
# Run it from the root of a source checkout. The build log goes to
# stderr, so the benchmark's result stays the last line of stdout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "psstbench: run from the root of a psst source checkout" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --cache=disabled \
  ./psstbench/main.exe ./bin/psst.exe 1>&2
exec .bench_build/default/psstbench/main.exe "$@"
