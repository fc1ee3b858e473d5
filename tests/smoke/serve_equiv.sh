#!/bin/sh
# Serve-equivalence smoke: the same jobs piped through `--serve` must
# produce the same records as batch mode (`--spec`): byte-identical with one
# worker thread (completion order == submission order), identical as a set
# with four. The serve_metrics record on stderr must count exactly the jobs
# the record stream carried, none failed. The job list runs every family of
# kernel the engine serves, karp_sipser and k_out among them.
#
# Usage: serve_equiv.sh BMH_ENGINE
set -eu
engine=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/jobs.txt" <<'JOBS'
name=er2 input=gen:er:n=4096,deg=5 algo=two_sided iters=5
name=er1 input=gen:er:n=4096,deg=5 algo=one_sided iters=5
name=ks  input=gen:adversarial:n=1024,k=8 algo=karp_sipser
name=mesh input=gen:mesh:nx=48 algo=one_sided augment=1
name=exact input=gen:planted:n=2048 algo=hopcroft_karp
name=kout input=gen:powerlaw:n=2048 algo=k_out k=2
JOBS

"$engine" --spec "$work/jobs.txt" --threads 4 --seed 1 --no-timings --quiet \
  > "$work/batch.jsonl"
"$engine" --serve --threads 1 --seed 1 --no-timings --quiet \
  < "$work/jobs.txt" > "$work/serve1.jsonl" 2> "$work/serve1.log"
"$engine" --serve --threads 4 --seed 1 --no-timings \
  < "$work/jobs.txt" > "$work/serve4.jsonl" 2> "$work/serve4.log"
cmp "$work/batch.jsonl" "$work/serve1.jsonl"
sort "$work/batch.jsonl" > "$work/batch.sorted"
sort "$work/serve4.jsonl" | cmp "$work/batch.sorted" -

record=$(grep '^{"record":"serve_metrics"' "$work/serve4.log")
emitted=$(wc -l < "$work/serve4.jsonl")
test "$emitted" -eq 6
echo "$record" | grep -q "\"jobs\":$emitted," ||
  { echo "serve_metrics does not count the $emitted records: $record"; exit 1; }
echo "$record" | grep -q '"failed":0,' ||
  { echo "serve_metrics reports failed jobs: $record"; exit 1; }
echo "serve equivalence: batch == serve at 1 worker byte for byte, as a set at 4; $record"
