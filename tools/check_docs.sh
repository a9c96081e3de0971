#!/usr/bin/env sh
# Docs-freshness check, run by CI on every build:
#
#   1. every module directory under src/ must be mentioned in
#      docs/ARCHITECTURE.md (the table and the dependency diagram both
#      qualify), so the architecture doc cannot silently rot;
#   2. docs/DATA_LIFECYCLE.md must exist and keep naming every stage API of
#      the answer path (submit -> ingest queue -> tail -> sealed segments ->
#      EM streaming -> finalize), so renaming or removing a stage forces a
#      doc update;
#   3. docs/PERSISTENCE.md must exist and keep naming every piece of the
#      durability subsystem (the shared byte codec, the segment codec,
#      snapshot store, checkpoint hooks, the on-disk file names, the
#      retraction records), so the recovery protocol doc cannot rot;
#   4. docs/SCENARIOS.md must exist and keep naming the scenario
#      subsystem's pieces (behavior/arrival interfaces, the runner, the
#      registered scenario names, the curve CSV), so the scenario pack
#      doc cannot rot;
#   5. docs/OBSERVABILITY.md must exist and keep naming the observability
#      subsystems (event log + replay driver, trace ring, metrics
#      exposition, snapshot inspection, report JSON), so the
#      record/replay and tracing doc cannot rot;
#   6. docs/PROTOCOL.md must exist and keep naming the socket front-end's
#      pieces (frame constants, decoders, the shared byte codec, message
#      vocabulary and its reserved kind bytes, the backpressure knobs,
#      RETRY_LATER semantics, the daemon/client tooling), so the
#      wire-protocol doc cannot rot;
#   7. docs/SHARDING.md must exist and keep naming the multi-shard
#      serving tier's pieces (the router and partition map, namespace
#      tags, the global arrival ledger, the process topology, the
#      crash/restore drill), so the sharding doc cannot rot;
#   8. README.md and docs/ARCHITECTURE.md must link the lifecycle,
#      persistence, observability, protocol, and sharding docs, and
#      README.md must link the scenarios doc;
#   9. one byte codec: the CRC-32 polynomial (0xedb88320), a
#      `struct Reader`, or a `void PutU*` definition anywhere in the C++
#      sources outside src/data/byte_codec.* fails the check — every
#      format encodes through that one codec.
#  10. one event loop, one driver loop: the retired poll() loop of
#      net::Server and the load generator's multi-thread driver (their
#      option, method and flag names) must not reappear in the sources.
#  11. retired descriptions: the deleted `ServiceStats::backfilled` field
#      (backfills are the `service.tasks_backfilled` counter) and the
#      phrase "inline policy refit" (policies refit on their own worker
#      thread) must not reappear in README.md, docs/ or src/.
#  12. one thread knob: `--threads` (InferenceArgs::num_shards) is the
#      only parallelism setting. The deleted thread counts of ServiceConfig
#      and TCrowdOptions, and a `--threads` flag of `tcrowd_cli replay`,
#      must not reappear in README.md, docs/, src/ or tools/ (the strict-
#      flags smoke, which pins that replay refuses the flag, excepted).
#
# Run it locally after adding a module or touching the answer path:
#
#   tools/check_docs.sh
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
doc="$repo_root/docs/ARCHITECTURE.md"
lifecycle="$repo_root/docs/DATA_LIFECYCLE.md"
persistence="$repo_root/docs/PERSISTENCE.md"
readme="$repo_root/README.md"

fail=0

if [ ! -f "$doc" ]; then
  echo "check_docs.sh: $doc is missing" >&2
  exit 1
fi

missing=""
for dir in "$repo_root"/src/*/; do
  module=$(basename "$dir")
  if ! grep -q -w "$module" "$doc"; then
    missing="$missing $module"
  fi
done

if [ -n "$missing" ]; then
  echo "check_docs.sh: src/ modules not documented in docs/ARCHITECTURE.md:" >&2
  for m in $missing; do
    echo "  - $m" >&2
  done
  echo "Describe them in the module table / dependency graph." >&2
  fail=1
fi

if [ ! -f "$lifecycle" ]; then
  echo "check_docs.sh: $lifecycle is missing" >&2
  fail=1
else
  # The answer path's stage APIs; each must stay documented by name.
  for anchor in SubmitAnswer SubmitAnswerBatch AnswerSegment \
                SegmentedAnswerStore SealAndSnapshot Tombstone \
                EmExecutor Finalize; do
    if ! grep -q -w "$anchor" "$lifecycle"; then
      echo "check_docs.sh: docs/DATA_LIFECYCLE.md no longer mentions" \
           "'$anchor' — update the lifecycle doc." >&2
      fail=1
    fi
  done
fi

if [ ! -f "$persistence" ]; then
  echo "check_docs.sh: $persistence is missing" >&2
  fail=1
else
  # The durability subsystem's load-bearing names; each must stay
  # documented (codec + store APIs, engine hooks, on-disk file names).
  for anchor in byte_codec ByteReader Crc32 \
                segment_codec SnapshotStore CheckpointArgs \
                EncodeAnswerBlock SchemaFingerprint MANIFEST journal.bin \
                restored_answers checkpoint_status crash-after \
                EncodeRetractionRecord RetractAnswer \
                restored_retractions; do
    if ! grep -q "$anchor" "$persistence"; then
      echo "check_docs.sh: docs/PERSISTENCE.md no longer mentions" \
           "'$anchor' — update the persistence doc." >&2
      fail=1
    fi
  done
fi

scenarios="$repo_root/docs/SCENARIOS.md"
if [ ! -f "$scenarios" ]; then
  echo "check_docs.sh: $scenarios is missing" >&2
  fail=1
else
  # The scenario subsystem's load-bearing names: the pluggable interfaces,
  # the runner, every registered scenario, and the curve plumbing.
  for anchor in WorkerBehavior ArrivalModel ScenarioRunner \
                FormatQualityCurveCsv baseline-honest spam-wave \
                collusion-ring quality-drift retraction-storm \
                sleeper-cell curve-csv; do
    if ! grep -q -- "$anchor" "$scenarios"; then
      echo "check_docs.sh: docs/SCENARIOS.md no longer mentions" \
           "'$anchor' — update the scenarios doc." >&2
      fail=1
    fi
  done
fi

observability="$repo_root/docs/OBSERVABILITY.md"
if [ ! -f "$observability" ]; then
  echo "check_docs.sh: $observability is missing" >&2
  fail=1
else
  # The observability subsystems' load-bearing names: recorder/replay
  # APIs, the CLI surface, the trace ring, metrics exposition, and the
  # snapshot inspector.
  for anchor in EventRecorder TruthDigest ApplyRecordedLeases \
                TCROWD_TRACE TCROWD_CRASH_DUMP_DIR --record --trace \
                metrics-out report-json FormatPrometheus \
                ApproxPercentile MetricsExporter InspectSnapshot \
                "tcrowd_cli replay" "tcrowd_cli inspect"; do
    if ! grep -q -- "$anchor" "$observability"; then
      echo "check_docs.sh: docs/OBSERVABILITY.md no longer mentions" \
           "'$anchor' — update the observability doc." >&2
      fail=1
    fi
  done
fi

protocol="$repo_root/docs/PROTOCOL.md"
if [ ! -f "$protocol" ]; then
  echo "check_docs.sh: $protocol is missing" >&2
  fail=1
else
  # The wire protocol's load-bearing names: frame constants, both
  # decoders, the byte codec under them, every message kind and the
  # reserved kind bytes, the backpressure machinery, and the tools that
  # speak it.
  for anchor in kFrameMagic kMaxFramePayload FrameDecoder \
                DecodeFrameStream byte_codec Hello Lease SubmitBatch \
                Retract Bye Finalize Stats LogGather ApplyLeases \
                "0x08) | reserved (retired" \
                RETRY_LATER write_queue_high \
                kMaxFramesPerWake inflight-budget \
                answers_since_refresh RequestRefresh tcrowd_serverd \
                NegotiateProtocolVersion MinProtocolVersionForMsgType \
                "GET /metrics" bench_net smoke_serverd; do
    if ! grep -q -- "$anchor" "$protocol"; then
      echo "check_docs.sh: docs/PROTOCOL.md no longer mentions" \
           "'$anchor' — update the protocol doc." >&2
      fail=1
    fi
  done
fi

sharding="$repo_root/docs/SHARDING.md"
if [ ! -f "$sharding" ]; then
  echo "check_docs.sh: $sharding is missing" >&2
  fail=1
else
  # The multi-shard serving tier's load-bearing names: the router facade,
  # the partition map, the merge machinery that buys the bit-identity
  # guarantee, the failover drill, and the multi-process topology behind
  # the ShardBackend seam.
  for anchor in ShardRouter ShardRouterConfig PartitionRows \
                namespace_tag NamespacedFingerprint shard-NNN \
                backend_factory EncodeAnswerBlock CrashShard RestoreShard \
                NegotiateProtocolVersion TruthDigest bench_shard \
                --shards ShardBackend LocalShardBackend \
                RemoteShardBackend LogGather --router --shard-index \
                auto-restore smoke_router; do
    if ! grep -q -- "$anchor" "$sharding"; then
      echo "check_docs.sh: docs/SHARDING.md no longer mentions" \
           "'$anchor' — update the sharding doc." >&2
      fail=1
    fi
  done
fi

for linked in DATA_LIFECYCLE.md PERSISTENCE.md OBSERVABILITY.md \
              PROTOCOL.md SHARDING.md; do
  for linker in "$readme" "$doc"; do
    if ! grep -q "$linked" "$linker"; then
      echo "check_docs.sh: $(basename "$linker") does not link" \
           "docs/$linked" >&2
      fail=1
    fi
  done
done

if ! grep -q "SCENARIOS.md" "$readme"; then
  echo "check_docs.sh: README.md does not link docs/SCENARIOS.md" >&2
  fail=1
fi

# One byte codec: little-endian writers, the bounds-checked reader and
# CRC-32 live in src/data/byte_codec.* only.
codec_copies=$(cd "$repo_root" && grep -rnE \
    '0xedb88320|struct Reader\b|void PutU[0-9]+ *\(' \
    --include='*.cc' --include='*.h' \
    src tools tests bench examples perfbench 2>/dev/null |
  grep -v '^src/data/byte_codec\.' || true)
if [ -n "$codec_copies" ]; then
  echo "check_docs.sh: byte codec code outside src/data/byte_codec.*" \
       "(encode through data/byte_codec.h instead):" >&2
  echo "$codec_copies" | sed 's/^/  /' >&2
  fail=1
fi

# One event loop, one driver loop. The pattern is bracketed so this
# script does not match itself.
second_paths=$(cd "$repo_root" && grep -rnE \
    'force_p[o]ll|RunP[o]ll|num_driver_thr[e]ads|Drive[L]oop' \
    src tools tests bench examples 2>/dev/null || true)
if [ -n "$second_paths" ]; then
  echo "check_docs.sh: a retired second serving path reappeared" \
       "(net::Server keeps one epoll loop, LoadGenerator one driver loop):" >&2
  echo "$second_paths" | sed 's/^/  /' >&2
  fail=1
fi

# Retired descriptions. Bracketed patterns, so this script does not match
# itself.
retired=$(cd "$repo_root" && grep -rnE \
    'ServiceStats::backfill[e]d|int64_t backfill[e]d = |total\.backfill[e]d|stats\.backfill[e]d|inline policy refi[t]' \
    README.md docs src 2>/dev/null || true)
if [ -n "$retired" ]; then
  echo "check_docs.sh: a retired description reappeared (backfills are the" \
       "service.tasks_backfilled counter; policies refit off the caller's" \
       "thread):" >&2
  echo "$retired" | sed 's/^/  /' >&2
  fail=1
fi

# One thread knob. Bracketed patterns, so this script does not match
# itself.
thread_knobs=$(cd "$repo_root" && grep -rnE \
    'ServiceConfig::num_thr[e]ads|TCrowdOptions::num_thr[e]ads|tcrowd_options\.num_thr[e]ads|(config|base|options_?|opt)\.num_thr[e]ads|threads_giv[e]n|(replay|\.events)[^|;]*--thr[e]ads' \
    README.md docs src tools 2>/dev/null |
  grep -v '^tools/smoke_strict_flags\.sh:' || true)
if [ -n "$thread_knobs" ]; then
  echo "check_docs.sh: a retired thread setting reappeared (--threads," \
       "InferenceArgs::num_shards, is the only one; replay fits at the" \
       "recorded shard count):" >&2
  echo "$thread_knobs" | sed 's/^/  /' >&2
  fail=1
fi

[ "$fail" -eq 0 ] || exit 1

echo "check_docs.sh: all $(ls -d "$repo_root"/src/*/ | wc -l | tr -d ' ') src/ modules are documented; data-lifecycle, persistence, scenarios, observability, protocol, and sharding docs are fresh; one byte codec; one event loop and one driver loop; no retired descriptions; one thread knob."
