#!/usr/bin/env sh
# End-to-end smoke of the socket front-end (docs/PROTOCOL.md), run by ctest
# as smoke_cli_serverd:
#
#   1. start tcrowd_serverd on a kernel-assigned port with --record,
#      scraping the port from the stable "listening on" stdout line;
#   2. drive it with `tcrowd_cli client --drive` (same world flags + seed,
#      so the Hello schema-fingerprint handshake must succeed), then
#      --finalize --stats --metrics over the same listener;
#   3. SIGTERM the daemon and require a clean exit 0 with a sealed event
#      log;
#   4. replay the recorded log onto a fresh in-process service and require
#      the FAITHFUL (bit-identical) verdict — the socket hop must not have
#      perturbed the deterministic answer stream.
#
# Usage: smoke_serverd.sh <tcrowd_serverd> <tcrowd_cli> <out-dir>
set -eu

serverd=$1
cli=$2
out=$3

rm -rf "$out"
mkdir -p "$out"

world_flags="--rows=12 --cols=3 --workers=8 --seed=7"
# shellcheck disable=SC2086  # word-splitting the flag list is intended
"$serverd" $world_flags --policy=looping --engine=tcrowd --target=3 \
  --staleness=24 --threads=2 --record="$out/serverd.events" \
  --listen=127.0.0.1:0 > "$out/serverd.log" 2>&1 &
pid=$!

# The daemon prints "tcrowd_serverd listening on HOST:PORT (...)" and
# flushes before entering the event loop; poll for it.
port=""
tries=0
while [ -z "$port" ]; do
  # The backgrounded daemon's shell may not have created the log yet.
  port=$(sed -n \
    's/^tcrowd_serverd listening on [^:]*:\([0-9][0-9]*\) .*/\1/p' \
    "$out/serverd.log" 2>/dev/null || true)
  [ -n "$port" ] && break
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
    echo "smoke_serverd.sh: daemon never printed its port:" >&2
    cat "$out/serverd.log" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
echo "daemon up on port $port (pid $pid)"

# shellcheck disable=SC2086
"$cli" client --connect=127.0.0.1:"$port" --drive --finalize --stats \
  --metrics $world_flags --connections=4 --tasks-per-worker=2 \
  --batch-size=2 --abandon=0.1 | tee "$out/client.log"

grep -q "finalize: digest" "$out/client.log"
grep -q "tcrowd_net_connections_accepted" "$out/client.log"

kill -TERM "$pid"
wait "$pid"          # set -eu: a non-zero daemon exit fails the smoke
cat "$out/serverd.log"
grep -q "event log written to" "$out/serverd.log"

"$cli" replay "$out/serverd.events" | tee "$out/replay.log"
grep -q "FAITHFUL" "$out/replay.log"

echo "smoke_serverd.sh: OK"
