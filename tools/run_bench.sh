#!/usr/bin/env sh
# Perf-baseline harness (ROADMAP: "add a perf baseline harness before
# optimizing hot paths"): runs the Google-Benchmark sweeps — assignment
# (paper Fig. 11), inference (paper Fig. 12), answer ingestion (segment
# substrate: per-answer vs batched submit, rebuild vs incremental layout),
# segment persistence (snapshot write/load throughput, crash-recovery
# latency vs history size), the socket front-end (bench_net: loopback
# TCNP round-trip p50/p99 for stats/lease/submit), and the multi-shard
# serving tier (bench_shard: routed-ingest / merged-Finalize / socket
# scaling over 1/2/4/8 shards, docs/SHARDING.md) — and snapshots their
# JSON output into one
# BENCH_baseline.json, so later optimizations have a fixed reference to
# diff against (tools/diff_bench.py; the nightly bench workflow posts the
# diff in its job summary).
#
# Usage:
#   tools/run_bench.sh [OUT.json]          # default OUT: ./BENCH_baseline.json
#   BENCH_BUILD_DIR=build/release tools/run_bench.sh
#   BENCH_FILTER='BM_TruthInference' tools/run_bench.sh   # subset, for smoke
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${BENCH_BUILD_DIR:-$repo_root/build}
out=${1:-$repo_root/BENCH_baseline.json}
filter=${BENCH_FILTER:-}

benches="bench_fig11_assignment_efficiency bench_fig12_inference_efficiency bench_ingest bench_snapshot bench_net bench_shard"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
# shellcheck disable=SC2086  # word-splitting the target list is intended
cmake --build "$build_dir" -j --target $benches >/dev/null

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

for bench in $benches; do
  bin="$build_dir/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "run_bench.sh: $bin not built (Google Benchmark unavailable?)" >&2
    exit 1
  fi
  echo "running $bench ..."
  if [ -n "$filter" ]; then
    "$bin" --benchmark_filter="$filter" \
           --benchmark_out="$tmp_dir/$bench.json" \
           --benchmark_out_format=json >/dev/null
  else
    "$bin" --benchmark_out="$tmp_dir/$bench.json" \
           --benchmark_out_format=json >/dev/null
  fi
done

# Merge the per-binary reports into {"<bench_name>": <report>, ...}.
python3 - "$out" "$tmp_dir" $benches << 'PYEOF'
import json
import sys

out_path, tmp_dir = sys.argv[1], sys.argv[2]
merged = {}
for bench in sys.argv[3:]:
    # A filter matching nothing leaves an empty report file; keep the key so
    # the baseline's shape is stable.
    try:
        with open(f"{tmp_dir}/{bench}.json") as f:
            merged[bench] = json.load(f)
    except (OSError, json.JSONDecodeError):
        merged[bench] = {}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PYEOF

echo "wrote $out"
