#!/bin/sh
# Graceful-drain smoke: SIGTERM against a live --serve must drain, not
# abort. Four lines go in through a FIFO whose write end stays open, so
# the server never sees EOF; once their four records are out the server
# gets SIGTERM. It must exit 0 (no killed-by-signal status), keep the four
# records, and end with a serve_metrics summary that counts them and
# carries "drained":true. The waits for the records and the summary are
# bounded, and a server left running on a failure path is killed and reaped.
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

fail() {
  echo "serve drain: $*"
  cat "$work/drain.log"
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
have_records() { [ "$(wc -l < "$work/drain.jsonl")" -ge 4 ]; }
has_summary() { grep -q '^{"record":"serve_metrics"' "$work/drain.log"; }

mkfifo "$work/in"
"$engine" --serve --threads 2 --seed 1 --no-timings \
  < "$work/in" > "$work/drain.jsonl" 2> "$work/drain.log" &
server=$!
exec 9> "$work/in"  # hold the write end open so EOF never races the signal
for i in 1 2 3 4; do
  echo "name=d$i input=gen:er:n=2048,deg=4 algo=two_sided" >&9
done
wait_for have_records || fail "four records did not arrive within 60 s"
kill -TERM "$server"
wait_for has_summary || fail "no serve_metrics summary within 60 s of SIGTERM"
status=0
wait "$server" || status=$?
server=
exec 9>&-
cat "$work/drain.log"
[ "$status" -eq 0 ] || fail "exit status $status, expected 0"
[ "$(wc -l < "$work/drain.jsonl")" -eq 4 ] || fail "expected exactly four records"
python3 - "$work/drain.log" <<'PY'
import json, sys
record = next(json.loads(l) for l in open(sys.argv[1])
              if l.startswith('{"record":"serve_metrics"'))
assert record['jobs'] == 4 and record['failed'] == 0, record
assert record.get('drained') is True, record
PY
