#include "simulation/load_generator.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "inference/segment_codec.h"
#include "net/client.h"
#include "net/socket_util.h"
#include "service/shard_backend.h"

namespace tcrowd::sim {

namespace {
/// SplitMix64 finalizer; derives the per-arrival session streams.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

LoadGenerator::LoadGenerator(CrowdSimulator* crowd,
                             service::ServingBackend* svc,
                             LoadGeneratorOptions options)
    : crowd_(crowd), service_(svc), options_(options) {
  TCROWD_CHECK(crowd_ != nullptr);
  TCROWD_CHECK(service_ != nullptr || !options_.connect.empty());
  options_.max_arrivals = std::max(1, options_.max_arrivals);
  options_.tasks_per_request = std::max(1, options_.tasks_per_request);
  options_.batch_size = std::max(1, options_.batch_size);
  options_.num_connections = std::max(1, options_.num_connections);
}

void LoadGenerator::RunSocket(LoadReport* report) {
  std::string host;
  uint16_t port = 0;
  Status st = net::ParseHostPort(options_.connect, &host, &port);
  if (!st.ok()) {
    report->socket_status = st;
    return;
  }
  std::vector<net::Client> clients(
      static_cast<size_t>(options_.num_connections));
  for (net::Client& client : clients) {
    st = client.Connect(host, port);
    if (!st.ok()) {
      report->socket_status = st;
      return;
    }
  }
  const uint64_t local_fingerprint =
      SchemaFingerprint(crowd_->schema(), crowd_->truth().num_rows());

  // Mirrors RunArrival frame for frame: same (seed, index) streams, same
  // order-independent simulator calls, same per-arrival call shape (Hello ≡
  // StartSession, Lease ≡ RequestTasks, SubmitBatch pages, Bye ≡
  // EndSession) — the server's single-threaded loop then books the
  // identical history the in-process run would have.
  bool drained = false;
  while (!drained) {
    if (StopRequested(*report)) break;
    if (arrivals_issued_ >= options_.max_arrivals) break;
    int64_t index = arrivals_issued_++;
    Rng session_rng(
        Mix64(options_.seed ^ Mix64(static_cast<uint64_t>(index))));
    ++report->arrivals;

    net::Client& client = clients[static_cast<size_t>(
        index % options_.num_connections)];
    WorkerId worker = crowd_->NextWorker(&session_rng);
    net::HelloResponse hello;
    st = client.Hello(net::HelloRequest{worker}, &hello);
    if (!st.ok()) {
      report->socket_status = st;
      return;
    }
    if (hello.schema_fingerprint != local_fingerprint) {
      report->socket_status = Status::FailedPrecondition(
          "server schema fingerprint does not match the local world — "
          "refusing to drive a mismatched table");
      return;
    }

    net::LeaseRequest lease_req;
    lease_req.session = hello.session;
    lease_req.max_tasks = static_cast<uint32_t>(options_.tasks_per_request);
    net::LeaseResponse lease;
    st = client.Lease(lease_req, &lease);
    if (!st.ok()) {
      report->socket_status = st;
      return;
    }
    report->assignments += static_cast<int64_t>(lease.cells.size());

    bool abandons =
        !lease.cells.empty() && session_rng.Bernoulli(options_.abandon_prob);
    if (abandons) {
      ++report->abandoned_sessions;
    } else {
      std::vector<std::pair<CellRef, Value>> items;
      items.reserve(lease.cells.size());
      for (const CellRef& cell : lease.cells) {
        items.emplace_back(cell,
                           crowd_->AnswerWith(worker, cell, &session_rng));
      }
      for (size_t lo = 0; lo < items.size();
           lo += static_cast<size_t>(options_.batch_size)) {
        size_t hi = std::min(items.size(),
                             lo + static_cast<size_t>(options_.batch_size));
        net::SubmitBatchRequest submit;
        submit.session = hello.session;
        submit.items.assign(items.begin() + lo, items.begin() + hi);
        net::SubmitBatchResponse verdicts;
        st = client.SubmitBatch(submit, &verdicts);
        if (!st.ok()) {
          report->socket_status = st;
          return;
        }
        ++report->batches;
        for (uint8_t code : verdicts.item_status) {
          if (code == static_cast<uint8_t>(net::WireStatus::kOk)) {
            ++report->answers;
          } else {
            ++report->rejected;
          }
        }
        if (StopRequested(*report)) break;  // "crash": drop the leases left
      }
    }
    net::ByeResponse bye;
    st = client.Bye(net::ByeRequest{hello.session}, &bye);
    if (!st.ok()) {
      report->socket_status = st;
      return;
    }
    drained = lease.drained != 0;
  }

  for (net::Client& client : clients) {
    report->retries += client.retry_later_seen();
  }
  net::StatsResponse stats;
  st = clients[0].Stats(net::StatsRequest{}, &stats);
  if (!st.ok()) {
    report->socket_status = st;
    return;
  }
  report->final_stats = service::ServiceStatsFromWire(stats);
}

bool LoadGenerator::RunArrival(LoadReport* report) {
  if (StopRequested(*report)) return false;
  if (arrivals_issued_ >= options_.max_arrivals) return false;
  if (service_->Drained()) return false;
  int64_t index = arrivals_issued_++;
  Rng session_rng(
      Mix64(options_.seed ^ Mix64(static_cast<uint64_t>(index))));
  ++report->arrivals;

  WorkerId worker = crowd_->NextWorker(&session_rng);
  service::ServingBackend::SessionId session = service_->StartSession(worker);
  std::vector<CellRef> tasks =
      service_->RequestTasks(session, options_.tasks_per_request);
  report->assignments += static_cast<int64_t>(tasks.size());

  bool abandons =
      !tasks.empty() && session_rng.Bernoulli(options_.abandon_prob);
  if (abandons) {
    ++report->abandoned_sessions;
  } else if (options_.batch_size > 1) {
    std::vector<std::pair<CellRef, Value>> items;
    items.reserve(tasks.size());
    for (const CellRef& cell : tasks) {
      items.emplace_back(cell, crowd_->AnswerWith(worker, cell,
                                                  &session_rng));
    }
    for (size_t lo = 0; lo < items.size();
         lo += static_cast<size_t>(options_.batch_size)) {
      size_t hi = std::min(items.size(),
                           lo + static_cast<size_t>(options_.batch_size));
      std::vector<std::pair<CellRef, Value>> page(items.begin() + lo,
                                                  items.begin() + hi);
      std::vector<Status> statuses =
          service_->SubmitAnswerBatch(session, page);
      ++report->batches;
      for (const Status& st : statuses) {
        if (st.ok()) {
          ++report->answers;
        } else {
          ++report->rejected;
        }
      }
      if (StopRequested(*report)) break;  // "crash": drop the leases left
    }
  } else {
    for (const CellRef& cell : tasks) {
      Value value = crowd_->AnswerWith(worker, cell, &session_rng);
      Status st = service_->SubmitAnswer(session, cell, value);
      if (st.ok()) {
        ++report->answers;
      } else {
        ++report->rejected;
      }
      if (StopRequested(*report)) break;  // "crash": drop the leases left
    }
  }
  service_->EndSession(session);
  return true;
}

LoadReport LoadGenerator::Run() {
  LoadReport report;
  auto start = std::chrono::steady_clock::now();
  if (!options_.connect.empty()) {
    RunSocket(&report);
  } else {
    while (RunArrival(&report)) {
    }
    report.final_stats = service_->Stats();
  }
  report.stopped_early = StopRequested(report);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  report.wall_seconds = elapsed.count();
  report.answers_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.answers) / report.wall_seconds
          : 0.0;
  return report;
}

}  // namespace tcrowd::sim
