#!/bin/sh
# Deterministic store-failure smoke: a cold --demo run populates a graph
# store; the warm rerun has every store load erroring, so each job degrades
# to a direct build. Degradation must be invisible in the records
# (byte-identical to the fault-free run and the golden) and visible in the
# telemetry (io errors counted, breaker tripped).
#
# Usage: store_failure.sh BMH_ENGINE DEMO_GOLDEN
set -eu
engine=$1
golden=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$engine" --demo --threads 4 --graph-store "$work/store" \
  --seed 1 --no-timings --quiet > "$work/cold.jsonl"
BMH_FAILPOINTS='store.load=error' \
"$engine" --demo --threads 4 --graph-store "$work/store" \
  --seed 1 --no-timings > "$work/warm.jsonl" 2> "$work/warm.log"
cat "$work/warm.log"
cmp "$work/cold.jsonl" "$work/warm.jsonl"
cmp "$work/cold.jsonl" "$golden"
grep -q '10/10 jobs ok' "$work/warm.log"
grep -Eq 'graph store: 0 hits, .* [1-9][0-9]* io errors, 0 content errors' "$work/warm.log"
grep -q 'circuit breaker open' "$work/warm.log"
