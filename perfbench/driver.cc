// perfbench_driver — the single-threaded socket client of the serving
// benchmark (see perfbench/README.md).
//
//   perfbench_driver drive --connect=HOST:PORT --probe=HOST:PORT,...
//       --out=FILE --setup-origin-ns=N [--tasks=K] [--page=P]
//       [--retract-share=R] [--rate=ARRIVALS_PER_S] [--load-seed=S]
//       [--analyze] [--probe-only]
//       <world flags of tcrowd_serverd>
//   perfbench_driver snapshot-open --out=FILE --shard-count=N
//       --checkpoint-dir=DIR <world flags>
//
// `drive` rebuilds the daemons' world from the same flags, checks that each
// daemon answers a Hello (the end of set-up), then replays deterministic
// worker arrivals in index order — Hello, Lease k, SubmitBatch pages,
// optional Retract, Bye — round-robin over 4 connections, closed loop or
// paced at a fixed arrival rate, and ends with kFinalizes back-to-back
// Finalize calls that must agree. It writes every request's round trip,
// the pacing lateness of every arrival, and the correctness evidence
// (accepted log size, daemon stats, wire digest vs the digest of an
// in-process IncrementalInferenceEngine::Finalize over the accepted log,
// error rate and MNAD of that table) as one JSON object.
// With --analyze it also times the inference layers offline on the
// gathered log; --probe-only stops after set-up. Statistics are left to perfbench/stats.py.
//
// `snapshot-open` times a cold SnapshotStore::Open of each shard checkpoint
// directory (the restart cost of what the run wrote).

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "inference/em_executor.h"
#include "inference/segment_codec.h"
#include "inference/tcrowd_model.h"
#include "net/client.h"
#include "net/socket_util.h"
#include "platform/event_log.h"
#include "platform/metrics.h"
#include "service/incremental_engine.h"
#include "service/shard_router.h"
#include "service/snapshot_store.h"
#include "serving_options.h"

namespace tcrowd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Connections the driver spreads arrivals over (nproc on the reference
/// machine).
constexpr size_t kConnections = 4;

/// Finalize calls at the end of a drive; run.py reports the fastest.
constexpr int kFinalizes = 3;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// SplitMix64 finalizer: the per-arrival stream derivation of the
/// load generator's deterministic socket mode.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Round trips of one request kind, with the arrival each belongs to.
struct Samples {
  std::vector<double> rtt_us;
  std::vector<int64_t> arrival;
  void Add(int64_t index, int64_t ns) {
    rtt_us.push_back(Micros(ns));
    arrival.push_back(index);
  }
};

/// Minimal JSON writer for the flat result object.
class JsonOut {
 public:
  void Num(const char* key, double v) {
    Key(key);
    body_ += StrFormat("%.9g", v);
  }
  void Int(const char* key, int64_t v) {
    Key(key);
    body_ += std::to_string(v);
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    body_ += "\"" + v + "\"";
  }
  template <typename T>
  void Array(const char* key, const std::vector<T>& values) {
    Key(key);
    body_ += "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) body_ += ",";
      body_ += StrFormat("%.9g", static_cast<double>(values[i]));
    }
    body_ += "]";
  }
  void Samples(const char* kind, const perfbench::Samples& s) {
    Array((std::string(kind) + "_us").c_str(), s.rtt_us);
    Array((std::string(kind) + "_arrival").c_str(), s.arrival);
  }
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s}\n", body_.c_str());
    return std::fclose(f) == 0;
  }

 private:
  void Key(const char* key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + std::string(key) + "\":";
  }
  std::string body_;
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  return 1;
}

/// One request/response pair timed on the wall clock. A transport error or
/// a non-OK wire status counts as a failed request.
template <typename Call>
bool Timed(Call call, int64_t index, Samples* samples, int64_t* failed,
           int64_t* in_calls_ns) {
  int64_t start = NowNs();
  bool ok = call();
  int64_t elapsed = NowNs() - start;
  *in_calls_ns += elapsed;
  if (!ok) {
    ++*failed;
    return false;
  }
  samples->Add(index, elapsed);
  return true;
}

int Drive(const FlagParser& flags) {
  tools::ServingOptions opt;
  Status st = tools::ParseServingOptions(flags, &opt);
  if (!st.ok()) return Fail(st.ToString());
  const std::string out_path = flags.GetString("out");
  const int tasks = static_cast<int>(flags.GetInt("tasks", 2));
  const int page = std::max(1, static_cast<int>(flags.GetInt("page", 1)));
  const double retract_share = flags.GetDouble("retract-share", 0.0);
  const double rate = flags.GetDouble("rate", 0.0);
  const uint64_t load_seed =
      static_cast<uint64_t>(flags.GetInt("load-seed", 7));
  const int64_t setup_origin = flags.GetInt("setup-origin-ns", NowNs());
  const bool analyze = flags.GetBool("analyze", false);

  // ---- Set-up: world synthesis, then one Hello per daemon.
  sim::SynthesizedWorld world = tools::BuildServingWorld(opt);
  const sim::CrowdSimulator& crowd = *world.crowd;
  const Schema& schema = world.dataset.schema;
  const int num_rows = world.dataset.num_rows();
  for (const std::string& addr : Split(flags.GetString("probe"), ',')) {
    std::string host;
    uint16_t port = 0;
    st = net::ParseHostPort(addr, &host, &port);
    if (!st.ok()) return Fail(st.ToString());
    net::Client probe;
    st = probe.Connect(host, port);
    net::HelloResponse hello;
    if (st.ok()) st = probe.Hello(net::HelloRequest{0}, &hello);
    net::ByeResponse bye;
    if (st.ok()) st = probe.Bye(net::ByeRequest{hello.session}, &bye);
    if (!st.ok()) return Fail("probe " + addr + ": " + st.ToString());
  }
  const int64_t setup_done = NowNs();
  if (flags.GetBool("probe-only", false)) {
    JsonOut out;
    out.Num("setup_s", Seconds(setup_done - setup_origin));
    return out.WriteTo(out_path) ? 0 : Fail("cannot write " + out_path);
  }

  std::string host;
  uint16_t port = 0;
  st = net::ParseHostPort(flags.GetString("connect"), &host, &port);
  if (!st.ok()) return Fail(st.ToString());
  std::vector<net::Client> clients(kConnections);
  for (net::Client& client : clients) {
    st = client.Connect(host, port);
    if (!st.ok()) return Fail(st.ToString());
  }
  const uint64_t fingerprint = SchemaFingerprint(schema, num_rows);

  // ---- Drive: arrivals in index order, each a whole session.
  Samples hello_s, lease_s, submit_s, retract_s, bye_s;
  std::vector<double> lateness_us;
  std::vector<Answer> accepted;  // accept order, retractions applied
  int64_t attempted = 0, failed = 0, answers_sent = 0, rejected = 0;
  int64_t answers_failed = 0;
  int64_t submit_sends = 0, retractions = 0, in_calls_ns = 0;
  int64_t pacing_wait_ns = 0;
  const int64_t drive_start = NowNs();
  for (int64_t index = 0;; ++index) {
    int64_t lateness = 0;
    if (rate > 0.0) {
      const int64_t due =
          drive_start + static_cast<int64_t>(static_cast<double>(index) *
                                             1e9 / rate);
      // Sleep to just short of the due time, then spin the rest, so timer
      // slack does not show up as generator lateness.
      const int64_t spin_ns = 300000;
      const int64_t wait_start = NowNs();
      if (due - wait_start > spin_ns) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - wait_start - spin_ns));
      }
      while (NowNs() < due) {
      }
      const int64_t now = NowNs();
      lateness = now - due;
      pacing_wait_ns += now - wait_start;
      lateness_us.push_back(Micros(lateness));
    }
    Rng rng(Mix64(load_seed ^ Mix64(static_cast<uint64_t>(index))));
    net::Client& client = clients[static_cast<size_t>(index) % kConnections];
    const WorkerId worker = crowd.NextWorker(&rng);

    net::HelloResponse hello;
    ++attempted;
    if (!Timed([&] {
          return client.Hello(net::HelloRequest{worker}, &hello).ok() &&
                 hello.status == net::WireStatus::kOk;
        }, index, &hello_s, &failed, &in_calls_ns)) {
      break;
    }
    if (hello.schema_fingerprint != fingerprint) {
      return Fail("daemon serves a different world than the flags describe");
    }
    net::LeaseResponse lease;
    ++attempted;
    if (!Timed([&] {
          net::LeaseRequest req;
          req.session = hello.session;
          req.max_tasks = static_cast<uint32_t>(tasks);
          return client.Lease(req, &lease).ok() &&
                 lease.status == net::WireStatus::kOk;
        }, index, &lease_s, &failed, &in_calls_ns)) {
      break;
    }
    std::vector<std::pair<CellRef, Value>> items;
    for (const CellRef& cell : lease.cells) {
      items.emplace_back(cell, crowd.AnswerWith(worker, cell, &rng));
    }
    CellRef first_accepted{-1, -1};
    for (size_t lo = 0; lo < items.size(); lo += static_cast<size_t>(page)) {
      const size_t hi = std::min(items.size(), lo + static_cast<size_t>(page));
      net::SubmitBatchRequest req;
      req.session = hello.session;
      req.items.assign(items.begin() + static_cast<std::ptrdiff_t>(lo),
                       items.begin() + static_cast<std::ptrdiff_t>(hi));
      net::SubmitBatchResponse verdicts;
      ++attempted;
      ++submit_sends;
      answers_sent += static_cast<int64_t>(req.items.size());
      if (!Timed([&] {
            return client.SubmitBatch(req, &verdicts).ok() &&
                   verdicts.status == net::WireStatus::kOk &&
                   verdicts.item_status.size() == req.items.size();
          }, index, &submit_s, &failed, &in_calls_ns)) {
        answers_failed += static_cast<int64_t>(req.items.size());
        break;
      }
      const int64_t rejected_before = rejected;
      for (size_t i = 0; i < req.items.size(); ++i) {
        if (verdicts.item_status[i] ==
            static_cast<uint8_t>(net::WireStatus::kOk)) {
          accepted.push_back(
              Answer{worker, req.items[i].first, req.items[i].second});
          if (first_accepted.row < 0) first_accepted = req.items[i].first;
        } else {
          ++rejected;
        }
      }
      // A rejected answer fails the request that carried it.
      if (rejected > rejected_before) ++failed;
    }
    if (first_accepted.row >= 0 && rng.Bernoulli(retract_share)) {
      net::RetractResponse retract;
      ++attempted;
      if (Timed([&] {
            net::RetractRequest req;
            req.worker = worker;
            req.cell = first_accepted;
            return client.Retract(req, &retract).ok() &&
                   retract.status == net::WireStatus::kOk;
          }, index, &retract_s, &failed, &in_calls_ns)) {
        // The service retracts the worker's newest live answer on the cell.
        for (size_t i = accepted.size(); i-- > 0;) {
          if (accepted[i].worker == worker &&
              accepted[i].cell.row == first_accepted.row &&
              accepted[i].cell.col == first_accepted.col) {
            accepted.erase(accepted.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        ++retractions;
      }
    }
    net::ByeResponse bye;
    ++attempted;
    if (!Timed([&] {
          return client.Bye(net::ByeRequest{hello.session}, &bye).ok() &&
                 bye.status == net::WireStatus::kOk;
        }, index, &bye_s, &failed, &in_calls_ns)) {
      break;
    }
    if (lease.drained != 0) break;
  }
  const int64_t drive_end = NowNs();
  int64_t retries = 0;
  for (const net::Client& client : clients) {
    retries += client.retry_later_seen();
  }

  net::StatsResponse stats;
  ++attempted;
  st = clients[0].Stats(net::StatsRequest{}, &stats);
  if (!st.ok()) return Fail("Stats: " + st.ToString());
  // Back-to-back Finalize calls on the finished history: the first also
  // waits for a refresh still running when the drive ended, and every one
  // must give the same table.
  net::FinalizeResponse fin;
  std::vector<double> finalize_s;
  int64_t finalize_mismatches = 0;
  for (int i = 0; i < kFinalizes; ++i) {
    net::FinalizeResponse again;
    ++attempted;
    const int64_t finalize_start = NowNs();
    st = clients[0].Finalize(net::FinalizeRequest{}, &again);
    finalize_s.push_back(Seconds(NowNs() - finalize_start));
    if (!st.ok() || again.status != net::WireStatus::kOk) {
      return Fail("Finalize: " + st.ToString());
    }
    if (i == 0) {
      fin = again;
    } else if (again.digest != fin.digest) {
      ++finalize_mismatches;
    }
  }
  for (net::Client& client : clients) client.Close();

  // ---- Correctness: the in-process engine over the accepted log. With
  // refreshes off it is also the offline probe of the engine layer.
  service::InferenceArgs args = tools::MakeServingConfig(opt).inference;
  args.checkpoint = service::CheckpointArgs();
  args.staleness_threshold = INT_MAX;
  args.async_refresh = false;
  Samples ingest_s;
  double engine_refresh_ms = 0.0, engine_finalize_s = 0.0;
  SegmentedAnswerStore::Stats store;
  InferenceResult local;
  {
    service::IncrementalInferenceEngine engine(schema, num_rows, args,
                                               nullptr);
    for (size_t lo = 0; lo < accepted.size(); lo += static_cast<size_t>(page)) {
      const size_t n =
          std::min(accepted.size() - lo, static_cast<size_t>(page));
      const int64_t start = NowNs();
      engine.SubmitAnswerBatch(accepted.data() + lo, n);
      ingest_s.Add(static_cast<int64_t>(lo), NowNs() - start);
    }
    if (analyze) {
      const int64_t start = NowNs();
      engine.RequestRefresh();
      engine.WaitForRefresh();
      engine_refresh_ms = static_cast<double>(NowNs() - start) * 1e-6;
    }
    const int64_t start = NowNs();
    local = engine.Finalize();
    engine_finalize_s = Seconds(NowNs() - start);
    store = engine.store_stats();
  }
  const uint64_t local_digest = TruthDigest(local.estimated_truth);
  const double error_rate =
      Metrics::ErrorRate(world.dataset.truth, local.estimated_truth);
  const double mnad =
      Metrics::Mnad(world.dataset.truth, local.estimated_truth);

  JsonOut out;
  out.Num("setup_s", Seconds(setup_done - setup_origin));
  out.Num("drive_s", Seconds(drive_end - drive_start));
  out.Array("finalize_s", finalize_s);
  out.Int("finalize_mismatches", finalize_mismatches);
  out.Num("driver_in_calls_s", Seconds(in_calls_ns));
  out.Num("driver_pacing_wait_s", Seconds(pacing_wait_ns));
  out.Int("arrivals", static_cast<int64_t>(hello_s.rtt_us.size()));
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Int("answers_sent", answers_sent);
  out.Int("accepted", static_cast<int64_t>(accepted.size()) + retractions);
  out.Int("live_answers", static_cast<int64_t>(accepted.size()));
  out.Int("rejected", rejected);
  out.Int("answers_failed", answers_failed);
  out.Int("retractions", retractions);
  out.Int("submit_sends", submit_sends);
  out.Int("retry_later", retries);
  out.Int("daemon_answers_accepted",
          static_cast<int64_t>(stats.answers_accepted));
  out.Int("daemon_engine_refreshes",
          static_cast<int64_t>(stats.engine_refreshes));
  out.Str("wire_digest", StrFormat("%016llx", static_cast<unsigned long long>(
                                                  fin.digest)));
  out.Str("local_digest",
          StrFormat("%016llx", static_cast<unsigned long long>(local_digest)));
  out.Num("error_rate", error_rate);
  out.Num("mnad", mnad);
  out.Samples("hello", hello_s);
  out.Samples("lease", lease_s);
  out.Samples("submit", submit_s);
  out.Samples("retract", retract_s);
  out.Samples("bye", bye_s);
  out.Array("lateness_us", lateness_us);

  if (analyze) {
    out.Array("engine_ingest_us", ingest_s.rtt_us);
    out.Num("engine_refresh_ms", engine_refresh_ms);
    out.Num("engine_finalize_s", engine_finalize_s);
    out.Int("store_seals", static_cast<int64_t>(store.sealed_segments));
    out.Int("store_compactions", static_cast<int64_t>(store.compactions));
    out.Int("store_entries_indexed",
            static_cast<int64_t>(store.sealed_entries +
                                 store.compacted_entries));
    // The EM itself, on the daemon's shard count and on one shard.
    AnswerSet log(num_rows, schema.num_columns());
    for (const Answer& a : accepted) log.Add(a);
    TCrowdModel model(args.tcrowd_options);
    double fit_s[2] = {0.0, 0.0};
    int iterations = 0;
    const int shard_counts[2] = {std::max(1, args.num_shards), 1};
    for (int i = 0; i < 2; ++i) {
      EmExecutor executor(shard_counts[i]);
      const int64_t start = NowNs();
      TCrowdState state = model.Fit(schema, log, &executor);
      fit_s[i] = Seconds(NowNs() - start);
      iterations = state.em_iterations;
    }
    out.Num("em_fit_s", fit_s[0]);
    out.Num("em_fit_one_shard_s", fit_s[1]);
    out.Int("em_iterations", iterations);
  }
  if (!out.WriteTo(out_path)) return Fail("cannot write " + out_path);
  return 0;
}

int SnapshotOpen(const FlagParser& flags) {
  tools::ServingOptions opt;
  Status st = tools::ParseServingOptions(flags, &opt);
  if (!st.ok()) return Fail(st.ToString());
  sim::SynthesizedWorld world = tools::BuildServingWorld(opt);
  const int shard_count = static_cast<int>(flags.GetInt("shard-count", 1));
  std::vector<service::ShardRange> ranges =
      service::PartitionRows(world.dataset.num_rows(), shard_count);
  const service::ServiceConfig base = tools::MakeServingConfig(opt);
  std::vector<double> open_ms;
  int64_t answers = 0;
  for (int shard = 0; shard < shard_count; ++shard) {
    // The config a shard daemon derives names its namespaced directory.
    const service::ShardRange& range = ranges[static_cast<size_t>(shard)];
    service::ServiceConfig config = service::DeriveShardServiceConfig(
        base, world.dataset.schema, world.dataset.num_rows(), range,
        shard_count, shard);
    service::SnapshotStore store(config.inference.checkpoint);
    service::SnapshotStore::RecoveredLog recovered;
    const int64_t start = NowNs();
    st = store.Open(world.dataset.schema, range.num_rows(), &recovered);
    open_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    if (!st.ok()) return Fail("SnapshotStore::Open: " + st.ToString());
    answers += static_cast<int64_t>(recovered.answers.size());
  }
  JsonOut out;
  out.Array("open_ms", open_ms);
  out.Int("recovered_answers", answers);
  if (!out.WriteTo(flags.GetString("out"))) return Fail("cannot write out");
  return 0;
}

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok() || flags.positional().empty()) {
    return Fail("usage: perfbench_driver drive|snapshot-open [flags]");
  }
  const std::string& mode = flags.positional()[0];
  if (mode == "drive") return Drive(flags);
  if (mode == "snapshot-open") return SnapshotOpen(flags);
  return Fail("unknown mode " + mode);
}

}  // namespace
}  // namespace tcrowd::perfbench

int main(int argc, char** argv) { return tcrowd::perfbench::Main(argc, argv); }
