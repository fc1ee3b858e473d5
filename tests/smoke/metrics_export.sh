#!/bin/sh
# Metrics-export smoke. --metrics-out must not perturb the record stream
# (cmp against the demo golden). The JSON-lines export must parse line by
# line, with non-zero stage latency histograms and ten jobs_run. On a warm
# store run the Prometheus export must be well-formed, its cache and store
# counters must equal the summary line on stderr, and the sprank and
# scaling solve and memo-hit counters must each pair up to at most jobs_run.
#
# Usage: metrics_export.sh BMH_ENGINE DEMO_GOLDEN
set -eu
engine=$1
golden=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$engine" --demo --threads 4 --graph-store "$work/store" \
  --seed 1 --no-timings --quiet --metrics-out "$work/metrics.jsonl" \
  > "$work/run.jsonl"
cmp "$golden" "$work/run.jsonl"
python3 - "$work/metrics.jsonl" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines, 'empty metrics export'
hist = {m['metric']: m for m in lines
        if m['domain'] == 'worker' and m['type'] == 'histogram'}
for name in ('queue_wait', 'graph_acquire', 'stage_match'):
    h = hist[name]
    assert h['count'] > 0, f'{name}: empty histogram'
    assert h['p50_seconds'] > 0 and h['p99_seconds'] > 0, f'{name}: zero quantile'
    assert h['p50_seconds'] <= h['p99_seconds'], f'{name}: p50 > p99'
jobs = sum(m['value'] for m in lines
           if m['domain'] == 'worker' and m['metric'] == 'jobs_run')
assert jobs == 10, f'expected 10 jobs_run, got {jobs}'
PY

"$engine" --demo --threads 4 --graph-store "$work/store" \
  --seed 1 --no-timings --metrics-out "$work/metrics.prom" \
  --metrics-interval-ms 50 > /dev/null 2> "$work/summary.log"
python3 - "$work/metrics.prom" "$work/summary.log" <<'PY'
import re, sys
text = open(sys.argv[1]).read()
for line in text.splitlines():
    assert re.match(r'^(# TYPE [a-zA-Z0-9_]+ (counter|gauge|histogram)'
                    r'|[a-zA-Z0-9_]+(\{le="[^"]+"\})? [0-9eE.+-]+|'
                    r'[a-zA-Z0-9_]+ -?[0-9]+)$', line), f'bad line: {line!r}'
def value(name):
    m = re.search(rf'^{name} (\d+)$', text, re.M)
    assert m, f'missing {name}'
    return int(m.group(1))
# The exported counters must equal the summary line's.
summary = open(sys.argv[2]).read()
sm = re.search(r'graph store: (\d+) hits, (\d+) misses, (\d+) spills,'
               r' (\d+) pruned, (\d+) io errors, (\d+) content errors,'
               r' (\d+) healed', summary)
assert sm, 'no graph store summary line'
for metric, group in (('hits', 1), ('misses', 2), ('spills', 3), ('io_errors', 5),
                      ('content_errors', 6), ('healed', 7)):
    got = value(f'bmh_graph_store_{metric}_total')
    assert got == int(sm.group(group)), f'store {metric}: {got} != {sm.group(group)}'
cm = re.search(r'graph cache: (\d+) hits, (\d+) misses', summary)
assert cm, 'no graph cache summary line'
assert value('bmh_graph_cache_hits_total') == int(cm.group(1))
assert value('bmh_graph_cache_misses_total') == int(cm.group(2))
# Each job solves sprank, reads the graph's memo, or needs neither (quality
# off, exact pipeline); likewise each job scales, reads the graph's
# remembered scaling, or needs neither (identity or an unscaled algorithm).
jobs_run = value('bmh_worker_jobs_run_total')
for kind in ('sprank', 'scaling'):
    solves = value(f'bmh_worker_{kind}_solves_total')
    hits = value(f'bmh_worker_{kind}_memo_hits_total')
    assert solves + hits <= jobs_run, \
        f'{solves} {kind} solves + {hits} memo hits exceed {jobs_run} jobs_run'
assert '_seconds_bucket{le="+Inf"}' in text, 'no histogram buckets'
PY
echo "metrics export: records unperturbed, JSONL and Prometheus exports agree with the summary"
