#!/bin/sh
# Graceful-drain smoke: SIGTERM against a live --serve must drain, not
# abort. Four lines go in through a FIFO whose write end stays open, so
# the server never sees EOF; once their four records are out the server
# gets SIGTERM. It must exit 0 (no killed-by-signal status), keep the four
# records, and end with a serve_metrics summary that counts them and
# carries "drained":true. A second server does the same with a graph store
# and must leave every spilled file on disk. The waits for the records and
# the summary are bounded, and a server left running on a failure path is
# killed and reaped.
#
# Usage: serve_drain.sh BMH_ENGINE
set -eu
engine=$1
work=$(mktemp -d)
server=
cleanup() {
  if [ -n "$server" ]; then
    kill -KILL "$server" 2>/dev/null || true
    wait "$server" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

# fail LOG MESSAGE
fail() {
  echo "serve drain: $2"
  cat "$1"
  exit 1
}

# Polls (0.1 s steps, at most 60 s) until the command succeeds.
wait_for() {
  tries=0
  until "$@"; do
    tries=$((tries + 1))
    [ "$tries" -le 600 ] || return 1
    sleep 0.1
  done
}
have_records() { [ "$(wc -l < "$1")" -ge "$2" ]; }
has_summary() { grep -q '^{"record":"serve_metrics"' "$1"; }

# drain NAME LINES ENGINE_ARGS...: feeds LINES job lines (read from
# $work/NAME.txt) to a --serve through a FIFO, waits for their records,
# sends SIGTERM and checks the drain. Leaves NAME.jsonl and NAME.log.
drain() {
  name=$1
  lines=$2
  shift 2
  log="$work/$name.log"
  out="$work/$name.jsonl"
  mkfifo "$work/$name.in"
  "$engine" --serve --threads 2 --seed 1 --no-timings "$@" \
    < "$work/$name.in" > "$out" 2> "$log" &
  server=$!
  exec 9> "$work/$name.in"  # hold the write end open so EOF never races the signal
  cat "$work/$name.txt" >&9
  wait_for have_records "$out" "$lines" || fail "$log" "$lines records did not arrive within 60 s"
  kill -TERM "$server"
  wait_for has_summary "$log" || fail "$log" "no serve_metrics summary within 60 s of SIGTERM"
  status=0
  wait "$server" || status=$?
  server=
  exec 9>&-
  cat "$log"
  [ "$status" -eq 0 ] || fail "$log" "exit status $status, expected 0"
  [ "$(wc -l < "$out")" -eq "$lines" ] || fail "$log" "expected exactly $lines records"
  python3 - "$log" "$lines" <<'PY'
import json, sys
record = next(json.loads(l) for l in open(sys.argv[1])
              if l.startswith('{"record":"serve_metrics"'))
assert record['jobs'] == int(sys.argv[2]) and record['failed'] == 0, record
assert record.get('drained') is True, record
PY
}

for i in 1 2 3 4; do
  echo "name=d$i input=gen:er:n=2048,deg=4 algo=two_sided"
done > "$work/plain.txt"
drain plain 4

# With a graph store, each write is slowed so that SIGTERM finds writes
# still in the store's write-behind backlog: the drain must still leave one
# file per distinct graph (seed 1 comes twice), no temporary, and a summary
# whose spill count equals the files.
for seed in 1 2 3 1; do
  echo "name=s$seed input=gen:er:n=2048,deg=4,seed=$seed algo=two_sided"
done > "$work/store.txt"
export BMH_FAILPOINTS='store.spill=delay(200ms)'
drain store 4 --graph-store "$work/store"
unset BMH_FAILPOINTS
files=$(ls "$work/store" | grep -c '\.bmg$' || true)
[ "$files" -eq 3 ] || fail "$work/store.log" "expected 3 store files, found $files"
if ls "$work/store" | grep -q '\.tmp\.'; then
  fail "$work/store.log" "a spill temporary was left behind"
fi
spills=$(sed -n 's/^graph store: [0-9]* hits, [0-9]* misses, \([0-9]*\) spills,.*/\1/p' "$work/store.log")
[ "$spills" = "$files" ] || fail "$work/store.log" "summary counts '$spills' spills for $files files"
