#!/bin/sh
# Demo-matrix smoke: the --demo records must be byte-identical across thread
# layouts (--threads 4 --threads-per-job 2, --threads 1), with the graph
# cache off, written through --out, and served through a persistent graph
# store, both the cold run that fills it and the warm run that mmap-loads
# every graph from it. They must also equal the checked-in golden, so a
# kernel change that moves a cardinality or a scaling_error bit fails here.
#
# The warm run must serve purely from the store: zero cold graph builds, no
# store misses, nothing rebuilt and re-spilled, no rejected files. (The
# exact hit count is 9 or 10, depending on whether the two jobs sharing a
# graph race or reuse the memory tier.)
#
# Graph builds, their CSC and the store's CRC run on the ambient OpenMP
# team, and must not depend on its size: a cold store spilled at
# OMP_NUM_THREADS=1 and one spilled at 4 must hold the same files, byte for
# byte.
#
# Usage: demo_matrix.sh BMH_ENGINE DEMO_GOLDEN
set -eu
engine=$1
golden=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

demo() {
  "$engine" --demo --seed 1 --no-timings "$@"
}

demo --threads 4 --threads-per-job 2 --quiet > "$work/run1.jsonl"
demo --threads 1 --quiet > "$work/run2.jsonl"
demo --threads 4 --graph-cache-mb 0 --quiet > "$work/run3.jsonl"
demo --threads 4 --out "$work/run4.jsonl" --quiet
demo --threads 4 --graph-store "$work/store" --quiet > "$work/run5.jsonl"
demo --threads 4 --graph-store "$work/store" > "$work/run6.jsonl" 2> "$work/warm.log"
cat "$work/warm.log"
cmp "$work/run1.jsonl" "$golden"
for run in 2 3 4 5 6; do
  cmp "$work/run1.jsonl" "$work/run$run.jsonl"
done
grep -q ' 0 cold graph builds' "$work/warm.log"
grep -Eq 'graph store: (9|10) hits, 0 misses, 0 spills, 0 pruned, 0 io errors, 0 content errors, 0 healed' \
  "$work/warm.log"

for team in 1 4; do
  OMP_NUM_THREADS=$team demo --threads 1 --graph-store "$work/store_omp$team" --quiet \
    > "$work/spill_omp$team.jsonl"
  cmp "$work/run1.jsonl" "$work/spill_omp$team.jsonl"
done
count=0
for file in "$work"/store_omp1/*.bmg; do
  cmp "$file" "$work/store_omp4/$(basename "$file")"
  count=$((count + 1))
done
test "$count" -eq "$(ls "$work"/store_omp4/*.bmg | wc -l)"
test "$count" -gt 0
echo "demo matrix: records equal the golden in every mode; $count store files equal at OMP 1 and 4"
