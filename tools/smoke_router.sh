#!/usr/bin/env sh
# End-to-end smoke of the multi-process shard topology (docs/SHARDING.md),
# run by ctest as smoke_router:
#
#   1. reference: one tcrowd_serverd with an IN-PROCESS 2-shard router
#      (--shards=2), driven over a single deterministic connection, then
#      finalized — its digest line is the oracle;
#   2. topology: two shard daemons (--shard-index=I --shard-count=2, shared
#      checkpoint root) plus a router process (--router --connect-shard=...)
#      on kernel-assigned ports; the same drive + finalize must print the
#      bit-identical digest line — the merged-Finalize identity across real
#      process boundaries;
#   3. restart drill: SIGTERM shard daemon 0, restart it on its ORIGINAL
#      port (it restores its journal from its own /shard-000 directory),
#      then drive again WITHOUT touching the router. The router re-adopts
#      the daemon on the first request that touches it (auto-restore +
#      ledger agreement); the drive must report rejected=0 — a shard that
#      failed to rejoin would reject every submit routed to it;
#   4. SIGTERM everything and require clean exit 0 all around.
#
# Usage: smoke_router.sh <tcrowd_serverd> <tcrowd_cli> <out-dir>
set -eu

serverd=$1
cli=$2
out=$3

rm -rf "$out"
mkdir -p "$out"

world_flags="--rows=12 --cols=3 --workers=8 --seed=7"
serve_flags="--policy=looping --engine=tcrowd --target=3 --staleness=24 \
  --threads=2"
# One connection: request/response is fully serialized, so the accepted
# history (and therefore the digest) is identical run to run. Phase 1 caps
# arrivals so open tasks remain for the post-restart drive (step 3) — the
# rejoin proof needs real submits routed through the restarted daemon.
load_flags="--connections=1 --tasks-per-worker=2 --batch-size=2"
phase1_flags="$load_flags --arrivals=20"

# Scrapes the kernel-assigned port from the stable "listening on" line.
wait_port() { # <log> <pid>
  _tries=0
  while :; do
    # The backgrounded daemon's shell may not have created the log yet.
    _port=$(sed -n \
      's/^tcrowd_serverd listening on [^:]*:\([0-9][0-9]*\) .*/\1/p' \
      "$1" 2>/dev/null || true)
    if [ -n "$_port" ]; then
      echo "$_port"
      return 0
    fi
    _tries=$((_tries + 1))
    if [ "$_tries" -gt 100 ] || ! kill -0 "$2" 2>/dev/null; then
      echo "smoke_router.sh: daemon never printed its port ($1):" >&2
      cat "$1" >&2
      return 1
    fi
    sleep 0.1
  done
}

pids=""
trap 'kill $pids 2>/dev/null || true' EXIT

# --- 1. Reference: the in-process 2-shard router. -------------------------
# shellcheck disable=SC2086  # word-splitting the flag lists is intended
"$serverd" $world_flags $serve_flags --shards=2 \
  --listen=127.0.0.1:0 > "$out/ref.log" 2>&1 &
ref_pid=$!
pids="$pids $ref_pid"
ref_port=$(wait_port "$out/ref.log" "$ref_pid")

# shellcheck disable=SC2086
"$cli" client --connect=127.0.0.1:"$ref_port" --drive --finalize \
  $world_flags $phase1_flags | tee "$out/ref_client.log"
ref_digest=$(grep '^finalize: digest' "$out/ref_client.log")
[ -n "$ref_digest" ]
echo "$ref_digest" | grep -qv 'over 0 answers'

kill -TERM "$ref_pid"
wait "$ref_pid"

# --- 2. The process topology: two shard daemons + a router. ---------------
for i in 0 1; do
  # shellcheck disable=SC2086
  "$serverd" $world_flags $serve_flags --shard-index=$i --shard-count=2 \
    --checkpoint-dir="$out/ckpt" --listen=127.0.0.1:0 \
    > "$out/shard$i.log" 2>&1 &
  eval "shard${i}_pid=\$!"
done
pids="$pids $shard0_pid $shard1_pid"
shard0_port=$(wait_port "$out/shard0.log" "$shard0_pid")
shard1_port=$(wait_port "$out/shard1.log" "$shard1_pid")
grep -q "shard 0/2" "$out/shard0.log"
grep -q "shard 1/2" "$out/shard1.log"

# shellcheck disable=SC2086
"$serverd" $world_flags $serve_flags --router \
  --connect-shard=127.0.0.1:"$shard0_port",127.0.0.1:"$shard1_port" \
  --listen=127.0.0.1:0 > "$out/router.log" 2>&1 &
router_pid=$!
pids="$pids $router_pid"
router_port=$(wait_port "$out/router.log" "$router_pid")
grep -q "router over 2 shard daemons" "$out/router.log"

# shellcheck disable=SC2086
"$cli" client --connect=127.0.0.1:"$router_port" --drive --finalize \
  $world_flags $phase1_flags | tee "$out/client1.log"
digest=$(grep '^finalize: digest' "$out/client1.log")
if [ "$digest" != "$ref_digest" ]; then
  echo "smoke_router.sh: digest diverged across process boundaries:" >&2
  echo "  in-process: $ref_digest" >&2
  echo "  router:     $digest" >&2
  exit 1
fi
echo "digest bit-identical across topologies: $digest"

# --- 3. Restart drill: shard daemon 0 dies and rejoins. -------------------
kill -TERM "$shard0_pid"
wait "$shard0_pid"

# Same port, same flags: the daemon restores phase-1 answers from its own
# /shard-000 journal, and the router's ledger-agreement check must accept
# the restored log before re-adopting the shard.
# shellcheck disable=SC2086
"$serverd" $world_flags $serve_flags --shard-index=0 --shard-count=2 \
  --checkpoint-dir="$out/ckpt" --listen=127.0.0.1:"$shard0_port" \
  > "$out/shard0_restarted.log" 2>&1 &
shard0_pid=$!
pids="$pids $shard0_pid"
wait_port "$out/shard0_restarted.log" "$shard0_pid" > /dev/null

# shellcheck disable=SC2086
"$cli" client --connect=127.0.0.1:"$router_port" --drive --finalize \
  $world_flags $load_flags | tee "$out/client2.log"
# The rejoin proof: the drive did real work (open tasks remained after the
# capped phase 1) and nothing was rejected — a shard that failed
# auto-restore would reject every submit routed to it.
grep -q "rejected=0 batches" "$out/client2.log"
grep "^drove " "$out/client2.log" | grep -qv "assignments=0 "
grep -q "^finalize: digest" "$out/client2.log"

# --- 4. Clean shutdown everywhere. ----------------------------------------
kill -TERM "$router_pid"
wait "$router_pid"          # set -eu: any non-zero exit fails the smoke
kill -TERM "$shard0_pid" "$shard1_pid"
wait "$shard0_pid"
wait "$shard1_pid"
cat "$out/router.log"

echo "smoke_router.sh: OK"
