// perfbench_host — the traced stand-in for tcrowd_serverd in the
// benchmark's traced run (see perfbench/README.md).
//
//   perfbench_host --spans-out=FILE [--router --connect-shard=H:P,...]
//       <tcrowd_serverd world and service flags>
//
// It builds the same backend tcrowd_serverd builds for the single-daemon
// role (a CrowdService) or the --router role (a ShardRouter over
// RemoteShardBackends), through tools/serving_options.h, and serves it with
// the same net::Server. The only difference is that the public seam of each
// layer is wrapped in a timing decorator:
//
//   ServingBackend    around the CrowdService / ShardRouter
//   ShardBackend      around each RemoteShardBackend (router role)
//   AssignmentPolicy  around the policy handed to the CrowdService
//
// Every call's wall-clock duration is kept in memory, in call order, and
// written as one JSON object to --spans-out when SIGTERM stops the loop.

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "assignment/policy.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "inference/segment_codec.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "serving_options.h"
#include "service/crowd_service.h"
#include "service/shard_backend.h"
#include "service/shard_router.h"

namespace tcrowd::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Durations (µs) of every call through one decorated seam, by call kind,
/// in call order.
class SpanLog {
 public:
  void Add(const char* kind, int64_t start_ns) {
    const double us = static_cast<double>(NowNs() - start_ns) * 1e-3;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[kind].push_back(us);
  }
  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{";
    for (const auto& [kind, values] : spans_) {
      if (out.size() > 1) out += ",";
      out += "\"" + kind + "\":[";
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ",";
        out += StrFormat("%.6g", values[i]);
      }
      out += "]";
    }
    return out + "}";
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> spans_;
};

/// Times a call into `log` under `kind`, returning the call's result.
template <typename F>
auto Span(SpanLog* log, const char* kind, F&& f) {
  const int64_t start = NowNs();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    log->Add(kind, start);
  } else {
    auto result = f();
    log->Add(kind, start);
    return result;
  }
}

class TimedServingBackend : public service::ServingBackend {
 public:
  TimedServingBackend(std::unique_ptr<service::ServingBackend> inner,
                      SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  SessionId StartSession(WorkerId worker) override {
    return Span(log_, "start_session",
                [&] { return inner_->StartSession(worker); });
  }
  std::vector<CellRef> RequestTasks(SessionId session, int k) override {
    return Span(log_, "request_tasks",
                [&] { return inner_->RequestTasks(session, k); });
  }
  Status SubmitAnswer(SessionId session, CellRef cell,
                      const Value& value) override {
    return inner_->SubmitAnswer(session, cell, value);
  }
  std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) override {
    return Span(log_, "submit_batch",
                [&] { return inner_->SubmitAnswerBatch(session, items); });
  }
  Status RetractAnswer(WorkerId worker, CellRef cell) override {
    return Span(log_, "retract",
                [&] { return inner_->RetractAnswer(worker, cell); });
  }
  Status ApplyRecordedLeases(SessionId session,
                             const std::vector<CellRef>& cells) override {
    return inner_->ApplyRecordedLeases(session, cells);
  }
  Status EndSession(SessionId session) override {
    return Span(log_, "end_session",
                [&] { return inner_->EndSession(session); });
  }
  int ExpireStaleSessions() override { return inner_->ExpireStaleSessions(); }
  bool Drained() const override {
    return Span(log_, "meters", [&] { return inner_->Drained(); });
  }
  service::ServiceStats Stats() const override {
    return Span(log_, "meters", [&] { return inner_->Stats(); });
  }
  Status checkpoint_status() const override {
    return inner_->checkpoint_status();
  }
  InferenceResult Finalize() override {
    return Span(log_, "finalize", [&] { return inner_->Finalize(); });
  }
  std::vector<Answer> GatherAnswerLog() override {
    return inner_->GatherAnswerLog();
  }
  MetricsRegistry& metrics() override { return inner_->metrics(); }
  const Schema& schema() const override { return inner_->schema(); }
  int num_rows() const override { return inner_->num_rows(); }
  int64_t answers_since_refresh() override {
    return Span(log_, "meters",
                [&] { return inner_->answers_since_refresh(); });
  }
  void RequestRefresh() override { inner_->RequestRefresh(); }
  uint64_t num_answers() override {
    return Span(log_, "meters", [&] { return inner_->num_answers(); });
  }
  int staleness_threshold() const override {
    return inner_->staleness_threshold();
  }

 private:
  std::unique_ptr<service::ServingBackend> inner_;
  SpanLog* log_;
};

class TimedShardBackend : public service::ShardBackend {
 public:
  TimedShardBackend(std::unique_ptr<service::ShardBackend> inner,
                    SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  SessionId StartSession(WorkerId worker) override {
    return Span(log_, "start_session",
                [&] { return inner_->StartSession(worker); });
  }
  std::vector<CellRef> RequestTasks(SessionId session, int k) override {
    return Span(log_, "request_tasks",
                [&] { return inner_->RequestTasks(session, k); });
  }
  std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) override {
    return Span(log_, "submit_batch",
                [&] { return inner_->SubmitAnswerBatch(session, items); });
  }
  Status RetractAnswer(WorkerId worker, CellRef cell) override {
    return Span(log_, "retract",
                [&] { return inner_->RetractAnswer(worker, cell); });
  }
  Status ApplyRecordedLeases(SessionId session,
                             const std::vector<CellRef>& cells) override {
    return inner_->ApplyRecordedLeases(session, cells);
  }
  Status EndSession(SessionId session) override {
    return Span(log_, "end_session",
                [&] { return inner_->EndSession(session); });
  }
  bool Drained() override {
    return Span(log_, "meters", [&] { return inner_->Drained(); });
  }
  service::ServiceStats Stats() override {
    return Span(log_, "meters", [&] { return inner_->Stats(); });
  }
  Status checkpoint_status() override { return inner_->checkpoint_status(); }
  int64_t answers_since_refresh() override {
    return Span(log_, "meters",
                [&] { return inner_->answers_since_refresh(); });
  }
  void RequestRefresh() override { inner_->RequestRefresh(); }
  uint64_t num_answers() override {
    return Span(log_, "meters", [&] { return inner_->num_answers(); });
  }
  Status GatherLog(std::vector<Answer>* out) override {
    return Span(log_, "gather_log", [&] { return inner_->GatherLog(out); });
  }
  bool down() const override { return inner_->down(); }

 private:
  std::unique_ptr<service::ShardBackend> inner_;
  SpanLog* log_;
};

class TimedPolicy : public AssignmentPolicy {
 public:
  TimedPolicy(std::unique_ptr<AssignmentPolicy> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }
  void Refresh(const Schema& schema, const AnswerSet& answers) override {
    Span(log_, "refresh", [&] { inner_->Refresh(schema, answers); });
  }
  void Observe(const Schema& schema, const AnswerSet& answers,
               const Answer& answer) override {
    Span(log_, "observe",
         [&] { inner_->Observe(schema, answers, answer); });
  }
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override {
    return Span(log_, "select", [&] {
      return inner_->SelectTaskExcluding(schema, answers, worker, exclude,
                                         out);
    });
  }

 private:
  std::unique_ptr<AssignmentPolicy> inner_;
  SpanLog* log_;
};

net::Server* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) g_server->Stop();
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_host: %s\n", what.c_str());
  return 1;
}

int Main(int argc, const char* const* argv) {
  FlagParser flags;
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) return Fail(st.ToString());
  tools::ServingOptions opt;
  st = tools::ParseServingOptions(flags, &opt);
  if (!st.ok()) return Fail(st.ToString());
  const std::string spans_out = flags.GetString("spans-out");
  if (spans_out.empty()) return Fail("--spans-out=FILE is required");

  sim::SynthesizedWorld world = tools::BuildServingWorld(opt);
  const Schema& schema = world.dataset.schema;
  const int num_rows = world.dataset.num_rows();
  service::ServiceConfig config = tools::MakeServingConfig(opt);
  const bool router_mode = flags.GetBool("router", false);

  SpanLog service_spans, shard_spans, policy_spans;
  std::unique_ptr<service::ServingBackend> backend;
  if (router_mode) {
    // As tcrowd_serverd --router: one RemoteShardBackend per address.
    std::vector<std::pair<std::string, uint16_t>> addrs;
    for (const std::string& addr :
         Split(flags.GetString("connect-shard"), ',')) {
      std::string host;
      uint16_t port = 0;
      st = net::ParseHostPort(addr, &host, &port);
      if (!st.ok()) return Fail(st.ToString());
      addrs.push_back({host.empty() ? "127.0.0.1" : host, port});
    }
    if (addrs.empty()) return Fail("--router needs --connect-shard");
    const int num_shards = static_cast<int>(addrs.size());
    std::vector<service::ShardRange> ranges =
        service::PartitionRows(num_rows, num_shards);
    service::ShardRouterConfig router_config;
    router_config.num_shards = num_shards;
    router_config.base = config;
    router_config.auto_restore = true;
    router_config.backend_factory = [&schema, addrs, ranges,
                                     &shard_spans](int shard) {
      service::RemoteShardBackend::Options ropt;
      ropt.host = addrs[static_cast<size_t>(shard)].first;
      ropt.port = addrs[static_cast<size_t>(shard)].second;
      ropt.expected_fingerprint = SchemaFingerprint(
          schema, ranges[static_cast<size_t>(shard)].num_rows());
      return std::make_unique<TimedShardBackend>(
          std::make_unique<service::RemoteShardBackend>(ropt), &shard_spans);
    };
    backend = std::make_unique<service::ShardRouter>(schema, num_rows,
                                                     std::move(router_config));
  } else {
    backend = std::make_unique<service::CrowdService>(
        schema, num_rows,
        std::make_unique<TimedPolicy>(
            tools::MakeServingPolicy(opt.policy, opt.seed), &policy_spans),
        config);
  }
  st = backend->checkpoint_status();
  if (!st.ok()) return Fail(st.ToString());
  TimedServingBackend timed(std::move(backend), &service_spans);

  // tcrowd_serverd's defaults: the router does not shed, a daemon derives
  // its budget from the staleness threshold.
  net::ServerOptions server_opt;
  server_opt.inflight_budget = router_mode ? -1 : 0;
  net::Server server(&timed, server_opt);
  st = server.Listen("127.0.0.1", 0);
  if (!st.ok()) return Fail(st.ToString());

  g_server = &server;
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // Same listen line as tcrowd_serverd, so one scraper serves both.
  std::printf("perfbench_host listening on 127.0.0.1:%u (traced, budget "
              "%lld)\n",
              server.port(), static_cast<long long>(server.inflight_budget()));
  std::fflush(stdout);
  st = server.Run();
  g_server = nullptr;
  if (!st.ok()) return Fail("event loop failed: " + st.ToString());

  std::FILE* f = std::fopen(spans_out.c_str(), "w");
  if (f == nullptr) return Fail("cannot write " + spans_out);
  std::fprintf(f, "{\"service\":%s,\"shard\":%s,\"policy\":%s}\n",
               service_spans.ToJson().c_str(), shard_spans.ToJson().c_str(),
               policy_spans.ToJson().c_str());
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tcrowd::perfbench

int main(int argc, char** argv) { return tcrowd::perfbench::Main(argc, argv); }
