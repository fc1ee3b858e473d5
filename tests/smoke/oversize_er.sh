#!/bin/sh
# Specs whose edge lists cannot be allocated under a 4 GB address-space
# limit: an Erdos-Renyi graph of 64 x 4e9 edges (~2 TB) and a road graph of
# 1.5e9 rows (3e9 cycle edges, whose reservation is computed in 64 bits).
# --serve must answer each with an ok=false std::bad_alloc record classified
# as a build failure and exit with the failed-job status 3, never abort on
# the uncaught exception.
#
# Under the same limit, a k_out job with k = 100000 on an n = 16384 graph,
# whose pick slots alone would take ~13 GB if k were not capped at each
# side's largest degree, must succeed with the record of k = 20.
#
# A k or iters outside int's range must fail as a parse record, not wrap
# into a small value that runs (k=-4294967294 would wrap to k = 2). So must
# a powerlaw avg whose avg * n is no edge count, a pinned seed outside
# [0, 2^64), and a suite scale outside [0.001, 1000].
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

for k in 20 100000; do
  (
    ulimit -v 4000000
    echo "name=kcap input=gen:er:n=16384,deg=4,seed=3 algo=k_out k=$k seed=7" |
      "$engine" --serve --threads 1 --no-timings --quiet
  ) > "$work/k$k.jsonl" 2> "$work/k$k.log"
done
cat "$work/k100000.jsonl" "$work/k100000.log"
grep -q '"ok":true' "$work/k20.jsonl" || { echo "the k=20 job failed"; exit 1; }
cmp "$work/k20.jsonl" "$work/k100000.jsonl" ||
  { echo "the k=100000 record differs from the k=20 record"; exit 1; }

printf '%s\n' \
  "input=gen:er:n=1024,deg=4,seed=3 algo=k_out k=-4294967294" \
  "input=gen:er:n=1024,deg=4,seed=3 algo=two_sided iters=4294967297" \
  "input=gen:powerlaw:n=1000,avg=1e300 algo=greedy" \
  "input=gen:er:n=64,seed=-5 algo=greedy" \
  "input=gen:er:n=64,seed=1e30 algo=greedy" \
  "input=suite:cage15_like:scale=1e300 algo=greedy" \
  "input=suite:cage15_like:scale=-1 algo=greedy" \
  "input=suite:cage15_like:scale=0 algo=greedy" |
  "$engine" --serve --threads 1 --no-timings --quiet > "$work/range.jsonl"
status=$?
cat "$work/range.jsonl"
test "$status" -eq 3 || { echo "exit status $status, expected 3"; exit 1; }
test "$(grep -c '"ok":false.*"error_kind":"parse"' "$work/range.jsonl")" -eq 8 ||
  { echo "an out-of-range value is not a parse record"; exit 1; }
