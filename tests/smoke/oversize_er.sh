#!/bin/sh
# Specs whose edge lists cannot be allocated under a 4 GB address-space
# limit: an Erdos-Renyi graph of 64 x 4e9 edges (~2 TB) and a road graph of
# 1.5e9 rows (3e9 cycle edges, whose reservation is computed in 64 bits).
# --serve must answer each with an ok=false std::bad_alloc record classified
# as a build failure and exit with the failed-job status 3, never abort on
# the uncaught exception.
#
# Usage: oversize_er.sh BMH_ENGINE
set -u
engine=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(
  ulimit -v 4000000
  printf '%s\n' "input=gen:er:n=64,deg=4000000000 algo=greedy" \
    "input=gen:road:n=1500000000 algo=greedy" |
    "$engine" --serve --threads 1 --no-timings --quiet
) > "$work/out.jsonl" 2> "$work/err.log"
status=$?
cat "$work/out.jsonl" "$work/err.log"
test "$status" -eq 3 || { echo "exit status $status, expected 3"; exit 1; }
test "$(wc -l < "$work/out.jsonl")" -eq 2 || { echo "expected two records"; exit 1; }
test "$(grep -c '"ok":false' "$work/out.jsonl")" -eq 2 ||
  { echo "a record is not ok=false"; exit 1; }
test "$(grep -c '"error_kind":"build"' "$work/out.jsonl")" -eq 2 ||
  { echo "a record is not classified as a build failure"; exit 1; }
test "$(grep -c '"error":"std::bad_alloc"' "$work/out.jsonl")" -eq 2 ||
  { echo "a record failed with something other than std::bad_alloc"; exit 1; }
