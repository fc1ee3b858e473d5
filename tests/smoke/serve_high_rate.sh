#!/bin/sh
# High-rate smoke for the submission queue behind --serve: 10,000 one-line
# jobs piped through in one stream must produce exactly 10,000 records, a
# serve_metrics summary that counts them, and nothing else on stderr: no
# dropped submits, no backpressure-induced errors.
#
# Usage: serve_high_rate.sh BMH_ENGINE
set -eu
engine=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

seq 10000 | awk '{print "name=h" $1 " input=gen:cycle:n=64 algo=greedy quality=0"}' \
  > "$work/jobs.txt"
"$engine" --serve --threads 4 --seed 1 --no-timings --quiet \
  < "$work/jobs.txt" > "$work/out.jsonl" 2> "$work/err.log"
records=$(wc -l < "$work/out.jsonl")
[ "$records" -eq 10000 ] || { echo "expected 10000 records, got $records"; exit 1; }
python3 - "$work/err.log" <<'PY'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 1, f'stderr must carry only serve_metrics: {lines}'
record = json.loads(lines[0])
assert record['record'] == 'serve_metrics', record
assert record['jobs'] == 10000 and record['failed'] == 0, record
PY
echo "high rate: 10000 lines, 10000 records, one serve_metrics line"
