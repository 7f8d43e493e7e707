#!/usr/bin/env bash
# Interleaved A/B runs for `compare`: runs one workload on each seed in
# two source checkouts, alternating which side goes first, so that a
# machine that speeds up or slows down during the session weighs on
# both sides alike. Then prints `compare A B` with A's bounds.
#
#   bash psstbench/ab.sh A_CHECKOUT B_CHECKOUT WORKLOAD SEED...
#
# Results are appended to ab-A.jsonl and ab-B.jsonl in the current
# directory. Use ten seeds or more; the verdict rule is in README.md.
set -euo pipefail
if [ $# -lt 4 ]; then
  echo "usage: bash psstbench/ab.sh A_CHECKOUT B_CHECKOUT WORKLOAD SEED..." >&2
  exit 2
fi
a=$(cd "$1" && pwd)
b=$(cd "$2" && pwd)
workload=$3
shift 3
out=$(pwd)
seconds=$(grep -o '"run_seconds": *[0-9]*' "$a/BENCHMARK.json" | grep -o '[0-9]*$')

side() {
  (cd "$1" && bash psstbench/run.sh --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0 --out "$out/ab-$3.jsonl" > /dev/null)
}

i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then
    side "$a" "$seed" A
    side "$b" "$seed" B
  else
    side "$b" "$seed" B
    side "$a" "$seed" A
  fi
  i=$((i + 1))
done
cd "$a" && bash psstbench/run.sh compare "$out/ab-A.jsonl" "$out/ab-B.jsonl"
