#include "service/shard_backend.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "inference/segment_codec.h"
#include "service/shard_router.h"

namespace tcrowd::service {

namespace {

/// Sub-shard checkpoint directory: "<root>/shard-NNN".
std::string ShardDirectory(const std::string& root, int shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "/shard-%03d", shard);
  return root + buf;
}

/// Rebuilds the Status a shard daemon encoded per item (the byte is a
/// StatusCode, see net::SubmitBatchResponse::item_status).
Status StatusFromCodeByte(uint8_t code) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::Ok();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument("rejected by shard daemon");
    case StatusCode::kNotFound:
      return Status::NotFound("rejected by shard daemon");
    case StatusCode::kOutOfRange:
      return Status::OutOfRange("rejected by shard daemon");
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition("rejected by shard daemon");
    case StatusCode::kInternal:
      return Status::Internal("rejected by shard daemon");
    case StatusCode::kIoError:
      return Status::IoError("rejected by shard daemon");
  }
  return Status::Internal("shard daemon sent an unknown status code");
}

}  // namespace

ServiceConfig DeriveShardServiceConfig(const ServiceConfig& base,
                                       const Schema& schema, int num_rows,
                                       const ShardRange& range,
                                       int num_shards, int shard) {
  ServiceConfig cfg = base;
  // The router owns session lifecycle and lease expiry globally; shards
  // must never expire a sub-session on their own.
  cfg.session_lease_timeout_seconds = 0.0;
  // Record/replay stays a single-shard feature (the global event order
  // lives above the shards); never let a shard double-record.
  cfg.recorder = nullptr;
  cfg.inference.recorder = nullptr;
  // De-correlate the per-shard routing policies.
  cfg.router.seed = base.router.seed + static_cast<uint64_t>(shard);
  if (cfg.inference.checkpoint.enabled()) {
    cfg.inference.checkpoint.directory =
        ShardDirectory(base.inference.checkpoint.directory, shard);
    // Shard dirs of the same table are shape-identical; the namespace tag
    // keeps shard i from silently restoring shard j's log.
    cfg.inference.checkpoint.namespace_tag =
        (static_cast<uint64_t>(num_shards) << 48) |
        (static_cast<uint64_t>(shard) << 32) |
        static_cast<uint32_t>(range.row_begin);
  }
  if (base.max_total_answers >= 0) {
    // Split an explicit budget proportionally to cells owned, exactly
    // (cumulative rounding; shares sum to the global budget).
    int64_t total = base.max_total_answers;
    int64_t cells_before =
        static_cast<int64_t>(range.row_begin) * schema.num_columns();
    int64_t cells_through =
        static_cast<int64_t>(range.row_end) * schema.num_columns();
    int64_t total_cells =
        static_cast<int64_t>(num_rows) * schema.num_columns();
    cfg.max_total_answers = total * cells_through / total_cells -
                            total * cells_before / total_cells;
  }
  return cfg;
}

Status StatusFromWire(net::WireStatus status, const char* what) {
  std::string msg = std::string(what) + ": " + net::WireStatusName(status);
  switch (status) {
    case net::WireStatus::kOk:
      return Status::Ok();
    case net::WireStatus::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case net::WireStatus::kNotFound:
      return Status::NotFound(std::move(msg));
    case net::WireStatus::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case net::WireStatus::kInternal:
      return Status::Internal(std::move(msg));
    case net::WireStatus::kRetryLater:
    case net::WireStatus::kFailedPrecondition:
    case net::WireStatus::kShuttingDown:
      return Status::FailedPrecondition(std::move(msg));
  }
  return Status::Internal(std::move(msg));
}

ServiceStats ServiceStatsFromWire(const net::StatsResponse& resp) {
  ServiceStats stats;
  stats.tasks_open = static_cast<int>(resp.tasks_open);
  stats.tasks_assigned = static_cast<int>(resp.tasks_assigned);
  stats.tasks_answered = static_cast<int>(resp.tasks_answered);
  stats.tasks_finalized = static_cast<int>(resp.tasks_finalized);
  stats.sessions_started = static_cast<int64_t>(resp.sessions_started);
  stats.sessions_active = static_cast<int64_t>(resp.sessions_active);
  stats.sessions_expired = static_cast<int64_t>(resp.sessions_expired);
  stats.answers_accepted = static_cast<int64_t>(resp.answers_accepted);
  stats.answers_rejected = static_cast<int64_t>(resp.answers_rejected);
  stats.answers_retracted = static_cast<int64_t>(resp.answers_retracted);
  stats.answers_restored = static_cast<int64_t>(resp.answers_restored);
  stats.assignments = static_cast<int64_t>(resp.assignments);
  stats.budget_spent = resp.budget_spent;
  stats.budget_remaining = resp.budget_remaining;
  stats.engine_refreshes = static_cast<int>(resp.engine_refreshes);
  return stats;
}

// ---------------------------------------------------------------------------
// RemoteShardBackend.

RemoteShardBackend::RemoteShardBackend(Options options)
    : options_(std::move(options)), client_(options_.client) {
  Status st;
  int attempts = std::max(1, options_.connect_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    st = client_.Connect(options_.host, options_.port);
    if (st.ok()) break;
    if (attempt + 1 < attempts) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.connect_retry_millis));
    }
  }
  if (!st.ok()) {
    health_ = st;
    return;
  }
  // Probe Hello: pin the connection's protocol version and verify the
  // daemon serves the expected sub-table before the router trusts it.
  net::HelloRequest req;
  req.worker = 0;
  req.min_version = net::kProtocolVersionMin;
  req.max_version = net::kProtocolVersionMax;
  net::HelloResponse resp;
  st = client_.Hello(req, &resp);
  if (!st.ok()) {
    health_ = st;
    return;
  }
  if (resp.status != net::WireStatus::kOk) {
    health_ = StatusFromWire(resp.status, "shard daemon Hello");
    client_.Close();
    return;
  }
  if (client_.negotiated_version() < 3) {
    health_ = Status::FailedPrecondition(
        "shard daemon negotiated a protocol older than v3 "
        "(LogGather/ApplyLeases unavailable)");
    client_.Close();
    return;
  }
  if (options_.expected_fingerprint != 0 &&
      resp.schema_fingerprint != options_.expected_fingerprint) {
    health_ = Status::FailedPrecondition(
        "shard daemon serves a different sub-table (fingerprint mismatch)");
    client_.Close();
    return;
  }
  // The probe session is not a worker; close it.
  net::ByeRequest bye;
  bye.session = resp.session;
  net::ByeResponse bye_resp;
  Track(client_.Bye(bye, &bye_resp));
}

Status RemoteShardBackend::CheckUp() const {
  if (!health_.ok()) {
    return Status::FailedPrecondition("owning shard is down");
  }
  return Status::Ok();
}

Status RemoteShardBackend::Track(Status st) {
  // The client closes its fd on any transport or framing error; a clean
  // application-level verdict leaves the connection open.
  if (health_.ok() && !client_.connected()) {
    health_ = st.ok() ? Status::IoError("shard daemon connection lost") : st;
  }
  return st;
}

ShardBackend::SessionId RemoteShardBackend::StartSession(WorkerId worker) {
  if (!CheckUp().ok()) return -1;
  net::HelloRequest req;
  req.worker = worker;
  req.min_version = net::kProtocolVersionMin;
  req.max_version = net::kProtocolVersionMax;
  net::HelloResponse resp;
  if (!Track(client_.Hello(req, &resp)).ok()) return -1;
  if (resp.status != net::WireStatus::kOk) return -1;
  return static_cast<SessionId>(resp.session);
}

std::vector<CellRef> RemoteShardBackend::RequestTasks(SessionId session,
                                                      int k) {
  if (!CheckUp().ok() || session < 0 || k <= 0) return {};
  net::LeaseRequest req;
  req.session = static_cast<uint64_t>(session);
  req.max_tasks = static_cast<uint32_t>(k);
  net::LeaseResponse resp;
  if (!Track(client_.Lease(req, &resp)).ok()) return {};
  if (resp.status != net::WireStatus::kOk) return {};
  return std::move(resp.cells);
}

std::vector<Status> RemoteShardBackend::SubmitAnswerBatch(
    SessionId session, const std::vector<std::pair<CellRef, Value>>& items) {
  Status up = CheckUp();
  if (!up.ok()) return std::vector<Status>(items.size(), up);
  net::SubmitBatchRequest req;
  req.session = static_cast<uint64_t>(session);
  req.items = items;
  net::SubmitBatchResponse resp;
  // The client's retry loop absorbs RETRY_LATER shedding (the daemon books
  // nothing on a shed), so the verdict here is the first real one.
  Status st = Track(client_.SubmitBatch(req, &resp));
  if (!st.ok()) return std::vector<Status>(items.size(), st);
  if (resp.status != net::WireStatus::kOk) {
    return std::vector<Status>(items.size(),
                               StatusFromWire(resp.status, "SubmitBatch"));
  }
  std::vector<Status> statuses;
  statuses.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    statuses.push_back(
        i < resp.item_status.size()
            ? StatusFromCodeByte(resp.item_status[i])
            : Status::Internal("shard daemon sent a short item-status list"));
  }
  return statuses;
}

Status RemoteShardBackend::RetractAnswer(WorkerId worker, CellRef cell) {
  TCROWD_RETURN_IF_ERROR(CheckUp());
  net::RetractRequest req;
  req.worker = worker;
  req.cell = cell;
  net::RetractResponse resp;
  TCROWD_RETURN_IF_ERROR(Track(client_.Retract(req, &resp)));
  return StatusFromWire(resp.status, "Retract");
}

Status RemoteShardBackend::ApplyRecordedLeases(
    SessionId session, const std::vector<CellRef>& cells) {
  TCROWD_RETURN_IF_ERROR(CheckUp());
  net::ApplyLeasesRequest req;
  req.session = static_cast<uint64_t>(session);
  req.cells = cells;
  net::ApplyLeasesResponse resp;
  TCROWD_RETURN_IF_ERROR(Track(client_.ApplyLeases(req, &resp)));
  return StatusFromWire(resp.status, "ApplyLeases");
}

Status RemoteShardBackend::EndSession(SessionId session) {
  TCROWD_RETURN_IF_ERROR(CheckUp());
  net::ByeRequest req;
  req.session = static_cast<uint64_t>(session);
  net::ByeResponse resp;
  TCROWD_RETURN_IF_ERROR(Track(client_.Bye(req, &resp)));
  return StatusFromWire(resp.status, "Bye");
}

Status RemoteShardBackend::FetchStats(net::StatsResponse* resp) {
  TCROWD_RETURN_IF_ERROR(CheckUp());
  TCROWD_RETURN_IF_ERROR(Track(client_.Stats(net::StatsRequest{}, resp)));
  return StatusFromWire(resp->status, "Stats");
}

bool RemoteShardBackend::Drained() {
  net::StatsResponse resp;
  if (!FetchStats(&resp).ok()) return false;
  return resp.drained != 0;
}

ServiceStats RemoteShardBackend::Stats() {
  net::StatsResponse resp;
  if (!FetchStats(&resp).ok()) return ServiceStats{};
  return ServiceStatsFromWire(resp);
}

int64_t RemoteShardBackend::answers_since_refresh() {
  net::StatsResponse resp;
  if (!FetchStats(&resp).ok()) return 0;
  return static_cast<int64_t>(resp.inflight_answers);
}

uint64_t RemoteShardBackend::num_answers() {
  net::StatsResponse resp;
  if (!FetchStats(&resp).ok()) return 0;
  // The daemon's live count: accepted is net of retractions AND already
  // includes journal-restored answers (they re-spend the budget on boot).
  return resp.answers_accepted;
}

Status RemoteShardBackend::GatherLog(std::vector<Answer>* out) {
  TCROWD_RETURN_IF_ERROR(CheckUp());
  net::LogGatherResponse resp;
  TCROWD_RETURN_IF_ERROR(
      Track(client_.LogGather(net::LogGatherRequest{}, &resp)));
  TCROWD_RETURN_IF_ERROR(StatusFromWire(resp.status, "LogGather"));
  out->clear();
  TCROWD_RETURN_IF_ERROR(
      DecodeAnswerBlock(resp.block.data(), resp.block.size(), out));
  if (out->size() != resp.answer_count) {
    return Status::Internal(
        "LogGather answer count does not match its block");
  }
  return Status::Ok();
}

}  // namespace tcrowd::service
