// Multi-shard serving-tier scaling sweep (docs/SHARDING.md): how ingest
// throughput and merged Finalize behave as the table is partitioned across
// 1/2/4/8 engine shards behind the ShardRouter facade, in process and with
// every shard behind its own server.
//
// (a) Routed ingestion: the full accept path per shard count — global
//     session fan-out, row -> shard routing, per-shard lease + engine
//     ingest, and the router's global arrival ledger (refreshes disabled
//     so the numbers isolate routing + ingest, comparable with
//     bench_ingest's single-engine baseline).
// (b) Merged Finalize: the cross-shard gather / seq merge-sort / fresh
//     batch-fit that buys the bit-identity guarantee, swept over shard
//     counts at a fixed accepted history.
// (c) Multi-process mode: the same routed-ingest sweep with every shard
//     behind a real net::Server on loopback and the router on
//     RemoteShardBackends — the per-answer cost of moving a shard out of
//     process (TCNP round-trips on the router's mutex), comparable
//     head-to-head with (a).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "assignment/policies.h"
#include "common/rng.h"
#include "inference/segment_codec.h"
#include "net/server.h"
#include "service/shard_backend.h"
#include "service/shard_router.h"
#include "simulation/crowd_simulator.h"
#include "simulation/table_generator.h"

namespace {

using namespace tcrowd;

/// Synthetic mixed-type world scaled to the requested answer count (same
/// recipe as bench_ingest), with the script pre-grouped per worker so the
/// drive loop is lease-batch + submit-batch per worker — no per-answer
/// session lookups in the timed region.
struct ShardWorld {
  sim::GeneratedTable table;
  std::vector<Answer> answers;
  /// Per worker, in arrival order: the cells it answers and the matching
  /// (cell, value) submit batch. Each worker answers a cell at most once,
  /// so one lease batch per worker is conflict-free.
  std::vector<std::pair<WorkerId, std::vector<std::pair<CellRef, Value>>>>
      by_worker;

  explicit ShardWorld(int num_answers) {
    const int kCols = 10;
    const int kAnswersPerTask = 5;
    sim::TableGeneratorOptions topt;
    topt.num_rows = std::max(8, num_answers / (kCols * kAnswersPerTask));
    topt.num_cols = kCols;
    Rng rng(88100 + num_answers);
    table = sim::GenerateTable(topt, &rng);
    sim::CrowdOptions copt;
    copt.num_workers = 60;
    sim::CrowdSimulator crowd(
        copt, table.schema, table.truth, table.row_difficulty,
        table.col_difficulty,
        sim::CrowdSimulator::DefaultColumnScales(table.schema),
        Rng(88200 + num_answers));
    AnswerSet seeded(table.truth.num_rows(), table.schema.num_columns());
    crowd.SeedAnswers(kAnswersPerTask, &seeded);
    answers = seeded.answers();

    std::map<WorkerId, std::vector<std::pair<CellRef, Value>>> grouped;
    for (const Answer& a : answers) {
      grouped[a.worker].emplace_back(a.cell, a.value);
    }
    by_worker.assign(grouped.begin(), grouped.end());
  }
};

service::ShardRouterConfig RouterConfig(int num_shards, bool with_fits) {
  service::ShardRouterConfig config;
  config.num_shards = num_shards;
  config.base.target_answers_per_task = 1000;  // the script owns acceptance
  config.base.session_lease_timeout_seconds = 1 << 20;
  config.base.inference.method = "tcrowd";
  config.base.inference.tcrowd_options = TCrowdOptions::Fast();
  config.base.inference.async_refresh = false;
  config.base.inference.ingest_batch_size = 64;
  if (with_fits) {
    config.base.inference.staleness_threshold = 1 << 20;
    config.base.inference.min_answers_for_fit = 8;
  } else {
    // Ingest-only: staleness / min-fit out of reach, mirroring
    // bench_ingest's IngestOnlyArgs so shard counts are the only variable.
    config.base.inference.staleness_threshold = 1 << 30;
    config.base.inference.min_answers_for_fit = 1 << 30;
  }
  config.base.router.refresh_every_answers = 1 << 20;
  config.policy_factory = [](int) {
    return std::make_unique<LoopingPolicy>();
  };
  return config;
}

/// Replays the pre-grouped script: one session per worker, one
/// ApplyRecordedLeases + SubmitAnswerBatch pair per worker.
void DriveScript(service::ShardRouter* router, const ShardWorld& world) {
  for (const auto& [worker, items] : world.by_worker) {
    service::ServingBackend::SessionId session = router->StartSession(worker);
    std::vector<CellRef> cells;
    cells.reserve(items.size());
    for (const auto& [cell, value] : items) cells.push_back(cell);
    router->ApplyRecordedLeases(session, cells);
    router->SubmitAnswerBatch(session, items);
    router->EndSession(session);
  }
}

void BM_ShardRouterIngest(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ShardWorld world(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    service::ShardRouter router(world.table.schema,
                                world.table.truth.num_rows(),
                                RouterConfig(shards, /*with_fits=*/false));
    DriveScript(&router, world);
    benchmark::DoNotOptimize(router.num_answers());
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ShardRouterIngest)
    ->Args({1, 20000})
    ->Args({2, 20000})
    ->Args({4, 20000})
    ->Args({8, 20000})
    ->Unit(benchmark::kMillisecond);

void BM_ShardRouterMergedFinalize(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ShardWorld world(10000);
  for (auto _ : state) {
    state.PauseTiming();  // the feed is bench (a); time only the merge+fit
    service::ShardRouter router(world.table.schema,
                                world.table.truth.num_rows(),
                                RouterConfig(shards, /*with_fits=*/true));
    DriveScript(&router, world);
    state.ResumeTiming();
    InferenceResult result = router.Finalize();
    benchmark::DoNotOptimize(result.estimated_truth.num_rows());
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["answers"] = static_cast<double>(world.answers.size());
}
BENCHMARK(BM_ShardRouterMergedFinalize)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Shard daemons in miniature for bench (d): each shard's derived
/// CrowdService behind a net::Server on a loopback kernel-assigned port,
/// event loop on its own thread — `tcrowd_serverd --shard-index` without
/// the fork/exec.
struct SocketShardFarm {
  std::vector<std::unique_ptr<service::CrowdService>> services;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::vector<std::thread> threads;
  std::vector<uint16_t> ports;

  SocketShardFarm(const sim::GeneratedTable& table,
                  const service::ServiceConfig& base, int shards) {
    int rows = table.truth.num_rows();
    std::vector<service::ShardRange> ranges =
        service::PartitionRows(rows, shards);
    net::ServerOptions options;
    options.inflight_budget = -1;  // the script owns pacing
    for (int i = 0; i < shards; ++i) {
      services.push_back(std::make_unique<service::CrowdService>(
          table.schema, ranges[i].num_rows(),
          std::make_unique<LoopingPolicy>(),
          service::DeriveShardServiceConfig(base, table.schema, rows,
                                            ranges[i], shards, i)));
      servers.push_back(
          std::make_unique<net::Server>(services.back().get(), options));
      Status st = servers.back()->Listen("127.0.0.1", 0);
      if (!st.ok()) std::abort();
      ports.push_back(servers.back()->port());
      net::Server* server = servers.back().get();
      threads.emplace_back([server] { server->Run(); });
    }
  }

  ~SocketShardFarm() {
    for (auto& server : servers) server->Stop();
    for (auto& thread : threads) thread.join();
  }
};

void BM_ShardRouterIngestOverSockets(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ShardWorld world(static_cast<int>(state.range(1)));
  int rows = world.table.truth.num_rows();
  std::vector<service::ShardRange> ranges =
      service::PartitionRows(rows, shards);
  for (auto _ : state) {
    state.PauseTiming();  // daemon boot/teardown is not the ingest path
    {
      service::ShardRouterConfig config =
          RouterConfig(shards, /*with_fits=*/false);
      SocketShardFarm farm(world.table, config.base, shards);
      config.policy_factory = nullptr;
      config.backend_factory = [&farm, &world, &ranges](int shard) {
        service::RemoteShardBackend::Options options;
        options.port = farm.ports[static_cast<size_t>(shard)];
        options.expected_fingerprint = SchemaFingerprint(
            world.table.schema,
            ranges[static_cast<size_t>(shard)].num_rows());
        return std::make_unique<service::RemoteShardBackend>(options);
      };
      service::ShardRouter router(world.table.schema, rows,
                                  std::move(config));
      state.ResumeTiming();
      DriveScript(&router, world);
      benchmark::DoNotOptimize(router.num_answers());
      state.PauseTiming();
    }  // router + farm torn down off the clock
    state.ResumeTiming();
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ShardRouterIngestOverSockets)
    ->Args({1, 20000})
    ->Args({2, 20000})
    ->Args({4, 20000})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
