// Socket front-end round-trip benchmarks (docs/PROTOCOL.md): a live
// net::Server on a loopback listener, driven by the blocking net::Client.
// Each sample is one full request/response hop — encode, CRC, kernel
// loopback, epoll wake, Dispatch, response queue, decode — so the numbers
// bound the per-frame overhead the TCNP layer adds on top of the
// in-process CrowdService calls:
//
//   BM_StatsRoundTrip   pure protocol ping (no service mutation)
//   BM_LeaseRoundTrip   Lease of K cells through the assignment policy
//   BM_SubmitRoundTrip  SubmitBatch of K answers into the ingest queue
//
// Besides the Google-Benchmark mean, each run reports hand-collected
// p50/p99 latency counters (micros), since tail latency is what the
// bounded write queue and admission control actually protect.
//
// Lease/submit round-robin over kSessions worker sessions and run a FIXED
// iteration count sized under the world's (worker, cell) assignment
// capacity, so every sample does real assignment/ingest work instead of
// measuring empty leases after the pool saturates.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "assignment/policies.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "service/crowd_service.h"
#include "simulation/dataset_synthesizer.h"
#include "simulation/table_generator.h"

namespace {

using namespace tcrowd;

constexpr uint64_t kSeed = 7711;
constexpr int kSessions = 40;  ///< one session per simulated worker

/// One live loopback server over a small synthesized world, plus one
/// connected client holding kSessions open sessions — shared per-benchmark
/// state. The 60x5 world gives 300 cells x 40 workers = 12000 assignable
/// (worker, cell) pairs; keep total leased cells per run below that.
class NetBench {
 public:
  NetBench() : world_(MakeWorld()) {
    service::ServiceConfig config;
    config.target_answers_per_task = 1 << 20;  // never drain mid-run
    config.inference.method = "tcrowd";
    config.inference.tcrowd_options = TCrowdOptions::Fast();
    // No refreshes: isolate the network + ingest path, not EM.
    config.inference.staleness_threshold = 1 << 30;
    config.inference.min_answers_for_fit = 1 << 30;
    config.inference.num_shards = 2;
    config.router.seed = kSeed + 2;
    svc_ = std::make_unique<service::CrowdService>(
        world_.dataset.schema, world_.dataset.num_rows(),
        std::make_unique<LoopingPolicy>(), config);

    net::ServerOptions opt;
    opt.inflight_budget = -1;  // measure hops, not shedding
    server_ = std::make_unique<net::Server>(svc_.get(), opt);
    Status st = server_->Listen("127.0.0.1", 0);
    if (!st.ok()) std::abort();
    thread_ = std::thread([this] { server_->Run(); });

    st = client_.Connect("127.0.0.1", server_->port());
    if (!st.ok()) std::abort();
    for (int w = 0; w < kSessions; ++w) {
      net::HelloResponse hello;
      st = client_.Hello(net::HelloRequest{w}, &hello);
      if (!st.ok()) std::abort();
      sessions_.push_back(hello.session);
    }
  }

  ~NetBench() {
    client_.Close();
    server_->Stop();
    thread_.join();
  }

  net::Client& client() { return client_; }
  uint64_t session(int64_t i) const {
    return sessions_[static_cast<size_t>(i % kSessions)];
  }
  static WorkerId worker(int64_t i) {
    return static_cast<WorkerId>(i % kSessions);
  }
  const sim::CrowdSimulator& crowd() const { return *world_.crowd; }

 private:
  // Built through a returned prvalue so the SynthesizedWorld is constructed
  // in place: the simulator references the dataset's schema, and a
  // move-assignment would leave that reference dangling.
  static sim::SynthesizedWorld MakeWorld() {
    sim::TableGeneratorOptions topt;
    topt.num_rows = 60;
    topt.num_cols = 5;
    topt.categorical_ratio = 0.5;
    sim::CrowdOptions copt;
    copt.num_workers = kSessions;
    Rng rng(kSeed);
    sim::GeneratedTable table = sim::GenerateTable(topt, &rng);
    return sim::SynthesizeFromTable(std::move(table), copt, 0, kSeed + 1,
                                    "bench");
  }

  sim::SynthesizedWorld world_;
  std::unique_ptr<service::CrowdService> svc_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
  net::Client client_;
  std::vector<uint64_t> sessions_;
};

/// Collects per-op wall micros and reports p50/p99 benchmark counters.
class LatencyRecorder {
 public:
  void Start() { t0_ = std::chrono::steady_clock::now(); }
  void Stop() {
    auto dt = std::chrono::steady_clock::now() - t0_;
    samples_.push_back(
        std::chrono::duration<double, std::micro>(dt).count());
  }
  void Report(benchmark::State& state) {
    if (samples_.empty()) return;
    auto nth = [&](double q) {
      size_t k = static_cast<size_t>(q * (samples_.size() - 1));
      std::nth_element(samples_.begin(), samples_.begin() + k,
                       samples_.end());
      return samples_[k];
    };
    state.counters["p50_us"] = nth(0.50);
    state.counters["p99_us"] = nth(0.99);
  }

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<double> samples_;
};

void BM_StatsRoundTrip(benchmark::State& state) {
  NetBench bench;
  LatencyRecorder lat;
  for (auto _ : state) {
    lat.Start();
    net::StatsResponse resp;
    Status st = bench.client().Stats(net::StatsRequest{}, &resp);
    lat.Stop();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(resp.frames_processed);
  }
  lat.Report(state);
}
BENCHMARK(BM_StatsRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_LeaseRoundTrip(benchmark::State& state) {
  NetBench bench;
  LatencyRecorder lat;
  const uint32_t max_tasks = static_cast<uint32_t>(state.range(0));
  int64_t i = 0;
  int64_t cells = 0;
  for (auto _ : state) {
    net::LeaseRequest req;
    req.session = bench.session(i);
    req.max_tasks = max_tasks;
    ++i;
    lat.Start();
    net::LeaseResponse resp;
    Status st = bench.client().Lease(req, &resp);
    lat.Stop();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    cells += static_cast<int64_t>(resp.cells.size());
  }
  lat.Report(state);
  state.counters["cells_per_lease"] =
      i > 0 ? static_cast<double>(cells) / static_cast<double>(i) : 0.0;
}
// 1000 iterations x <=8 cells = 8000 leased cells < the 12000-pair pool.
BENCHMARK(BM_LeaseRoundTrip)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_SubmitRoundTrip(benchmark::State& state) {
  NetBench bench;
  LatencyRecorder lat;
  const uint32_t batch = static_cast<uint32_t>(state.range(0));
  Rng rng(kSeed + 9);
  int64_t i = 0;
  int64_t accepted = 0;
  for (auto _ : state) {
    // Lease outside the timed window; the sample is the submit hop only.
    net::LeaseRequest lease;
    lease.session = bench.session(i);
    lease.max_tasks = batch;
    net::LeaseResponse cells;
    Status st = bench.client().Lease(lease, &cells);
    if (!st.ok() || cells.cells.empty()) {
      state.SkipWithError("lease failed or pool exhausted");
      break;
    }
    net::SubmitBatchRequest req;
    req.session = bench.session(i);
    for (const CellRef& cell : cells.cells) {
      req.items.emplace_back(
          cell, bench.crowd().AnswerWith(NetBench::worker(i), cell, &rng));
    }
    ++i;
    lat.Start();
    net::SubmitBatchResponse resp;
    st = bench.client().SubmitBatch(req, &resp);
    lat.Stop();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    for (uint8_t v : resp.item_status) {
      if (v == static_cast<uint8_t>(net::WireStatus::kOk)) ++accepted;
    }
  }
  lat.Report(state);
  state.counters["answers_accepted"] = static_cast<double>(accepted);
}
// 1000 iterations x <=8 answers = 8000 leased cells < the 12000-pair pool.
BENCHMARK(BM_SubmitRoundTrip)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
