#!/bin/sh
# An Erdos-Renyi spec whose edge list cannot be allocated (64 x 4e9 edges,
# ~2 TB) under a 4 GB address-space limit: --serve must answer with one
# ok=false record classified as a build failure and exit with the
# failed-job status 3, never abort on an uncaught std::bad_alloc.
#
# Usage: oversize_er.sh BMH_ENGINE
set -u
engine=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(
  ulimit -v 4000000
  echo "input=gen:er:n=64,deg=4000000000 algo=greedy" |
    "$engine" --serve --threads 1 --no-timings --quiet
) > "$work/out.jsonl" 2> "$work/err.log"
status=$?
cat "$work/out.jsonl" "$work/err.log"
test "$status" -eq 3 || { echo "exit status $status, expected 3"; exit 1; }
test "$(wc -l < "$work/out.jsonl")" -eq 1 || { echo "expected one record"; exit 1; }
grep -q '"ok":false' "$work/out.jsonl" || { echo "record is not ok=false"; exit 1; }
grep -q '"error_kind":"build"' "$work/out.jsonl" ||
  { echo "record is not classified as a build failure"; exit 1; }
