#!/bin/sh
# Workload-mix smoke: real matrices (`mm:`, keyed by content so the store
# survives restarts), undirected matching and structural analysis flow
# through the same engine as generated matching jobs. The cold run populates
# a graph store; the warm run (a new process, more threads) must emit
# byte-identical records and build zero graphs.
#
# Three records are pinned against checked-in goldens:
#   - the analyze records: DM block sizes, fine block count, total support,
#     full indecomposability and the König cover size do not depend on which
#     maximum matching the exact solve returns, so a solver change must leave
#     them byte-identical;
#   - the undirected records: the one_out line on a bipartite union runs the
#     shared 1-pick sampler and out-one chain phase, exact on the choice
#     subgraph at any thread count, so a change that moves a pick shows;
#   - `--list`: a table that drops, adds or reorders a name must update it.
# The deficient-er lines run the exact solve on a sprank-deficient instance;
# the cold pass's 20 s timeout turns a label-climbing stall (tens of seconds
# without global relabeling) into a failure.
#
# Usage: mix_goldens.sh BMH_ENGINE SOURCE_DIR
# Runs from SOURCE_DIR, since the spec's mm: paths and the goldens' input
# fields are relative to it.
set -eu
engine=$1
cd "$2"
data=tests/data
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

timeout 20 "$engine" --spec "$data/mix_jobs.txt" --threads 1 \
  --graph-store "$work/store" --seed 1 --no-timings --quiet > "$work/cold.jsonl"
"$engine" --spec "$data/mix_jobs.txt" --threads 4 --graph-store "$work/store" \
  --seed 1 --no-timings > "$work/warm.jsonl" 2> "$work/warm.log"
cat "$work/warm.log"
cmp "$work/cold.jsonl" "$work/warm.jsonl"
grep '"kind":"analyze"' "$work/cold.jsonl" | cmp - "$data/mix_analyze_golden.jsonl"
grep '"kind":"undirected-match"' "$work/cold.jsonl" |
  cmp - "$data/mix_undirected_golden.jsonl"
grep -q ' 0 cold graph builds' "$work/warm.log"
"$engine" --list | diff "$data/bmh_engine_list.txt" -
