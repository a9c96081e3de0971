#include "service/crowd_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "inference/segment_codec.h"
#include "platform/event_log.h"
#include "platform/trace.h"

namespace tcrowd::service {

namespace {

// The engine gets the service's recorder through its own args (the engine
// records seal events from refresh threads).
InferenceArgs WithRecorder(InferenceArgs args, EventRecorder* recorder) {
  args.recorder = recorder;
  return args;
}

}  // namespace

const char* TaskStateName(TaskState state) {
  switch (state) {
    case TaskState::kOpen:
      return "open";
    case TaskState::kAssigned:
      return "assigned";
    case TaskState::kAnswered:
      return "answered";
    case TaskState::kFinalized:
      return "finalized";
  }
  return "?";
}

CrowdService::CrowdService(const Schema& schema, int num_rows,
                           std::unique_ptr<AssignmentPolicy> policy,
                           ServiceConfig config)
    : schema_(schema),
      num_rows_(num_rows),
      config_(std::move(config)),
      sessions_started_(&metrics_.counter("service.sessions_started")),
      sessions_ended_(&metrics_.counter("service.sessions_ended")),
      sessions_expired_(&metrics_.counter("service.sessions_expired")),
      tasks_assigned_(&metrics_.counter("service.tasks_assigned")),
      tasks_backfilled_(&metrics_.counter("service.tasks_backfilled")),
      answers_accepted_(&metrics_.counter("service.answers_accepted")),
      answers_rejected_(&metrics_.counter("service.answers_rejected")),
      answers_retracted_(&metrics_.counter("service.answers_retracted")),
      answer_batches_(&metrics_.counter("service.answer_batches")),
      answers_restored_(&metrics_.counter("service.answers_restored")),
      tasks_finalized_(&metrics_.counter("service.tasks_finalized")),
      request_latency_(&metrics_.latency("service.request_tasks")),
      submit_latency_(&metrics_.latency("service.submit_answer")),
      engine_(std::make_unique<IncrementalInferenceEngine>(
          schema, num_rows,
          WithRecorder(config_.inference, config_.recorder),
          &refresh_worker_)),
      router_(std::move(policy), config_.router),
      answers_(num_rows, schema.num_columns()),
      tasks_(static_cast<size_t>(num_rows) * schema.num_columns()) {
  TCROWD_CHECK(num_rows_ > 0);
  TCROWD_CHECK(schema_.num_columns() > 0);
  config_.target_answers_per_task =
      std::max(1, config_.target_answers_per_task);
  if (config_.max_total_answers < 0) {
    config_.max_total_answers =
        static_cast<int64_t>(config_.target_answers_per_task) * tasks_.size();
  }

  // Crash-restart recovery: replay the engine's restored answer log into
  // the service ledger, exactly as if each answer had been accepted live —
  // per-cell counts, budget spend/commit, and task finalization all line
  // up with the durable history. The router is NOT warmed per answer; its
  // first Route() refits over the full recovered AnswerSet anyway.
  std::vector<Answer> restored_log;
  if (engine_->restored_answers() > 0) {
    AnswerSet recovered = engine_->SnapshotAnswers();
    restored_log = recovered.answers();
    for (const Answer& answer : recovered.answers()) {
      answers_.Add(answer);
      TaskEntry& task = TaskAt(answer.cell);
      ++task.answers;
      ++budget_spent_;
      ++budget_committed_;
      if (task.answers >= config_.target_answers_per_task &&
          !task.finalized) {
        task.finalized = true;
        ++finalized_count_;
        tasks_finalized_->Increment();
      }
    }
    answers_restored_->Increment(static_cast<int64_t>(recovered.size()));
    answers_accepted_->Increment(static_cast<int64_t>(recovered.size()));
    // Bring estimates back online without blocking startup (async mode
    // runs the fit on the refresh worker).
    engine_->RequestRefresh();
  }
  TCROWD_TRACE(kService, kInfo, "service up", tasks_.size(),
               restored_log.size());
  // kRunStart carries the restored bootstrap so a replay without the
  // checkpoint directory can re-inject the durable history first.
  if (config_.recorder != nullptr) {
    config_.recorder->RecordRunStart(SchemaFingerprint(schema_, num_rows_),
                                     static_cast<uint32_t>(num_rows_),
                                     restored_log);
  }
}

CrowdService::~CrowdService() = default;

TaskState CrowdService::StateOf(const TaskEntry& task) const {
  if (task.finalized) return TaskState::kFinalized;
  if (task.leases > 0) return TaskState::kAssigned;
  if (task.answers > 0) return TaskState::kAnswered;
  return TaskState::kOpen;
}

bool CrowdService::Assignable(const TaskEntry& task) const {
  return !task.finalized &&
         task.answers + task.leases < config_.target_answers_per_task;
}

CrowdService::TaskEntry& CrowdService::TaskAt(CellRef cell) {
  return tasks_[static_cast<size_t>(cell.row) * schema_.num_columns() +
                cell.col];
}

const CrowdService::TaskEntry& CrowdService::TaskAt(CellRef cell) const {
  return tasks_[static_cast<size_t>(cell.row) * schema_.num_columns() +
                cell.col];
}

bool CrowdService::DrainedLocked() const {
  return budget_committed_ >= config_.max_total_answers ||
         finalized_count_ == static_cast<int>(tasks_.size());
}

int64_t CrowdService::NowNanos() const {
  if (config_.clock_nanos) return config_.clock_nanos();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CrowdService::ReleaseLeasesLocked(Session* session) {
  for (const CellRef& cell : session->leases) {
    --TaskAt(cell).leases;
    --budget_committed_;  // refund the unanswered commitment
  }
  session->leases.clear();
}

int CrowdService::ExpireStaleSessionsLocked(int64_t now, bool force) {
  if (config_.session_lease_timeout_seconds <= 0.0) return 0;
  const int64_t deadline_nanos =
      static_cast<int64_t>(config_.session_lease_timeout_seconds * 1e9);
  // Sweep watermark: after a sweep at time T no surviving session can be
  // overdue before T + deadline, so the request paths skip the
  // O(active sessions) scan until then (expiry may lag by at most one
  // deadline period there; the explicit ExpireStaleSessions() is exact).
  if (!force && now - last_sweep_nanos_ < deadline_nanos) return 0;
  last_sweep_nanos_ = now;
  std::vector<uint64_t> expired_ids;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second.last_active_nanos > deadline_nanos) {
      ReleaseLeasesLocked(&it->second);
      expired_ids.push_back(static_cast<uint64_t>(it->first));
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  const int expired = static_cast<int>(expired_ids.size());
  if (expired > 0) {
    sessions_expired_->Increment(expired);
    TCROWD_TRACE(kService, kInfo, "sessions expired",
                 static_cast<uint64_t>(expired), sessions_.size());
    // Wall-clock expiry is nondeterministic; the log pins which sessions
    // died so replay applies the identical sweep.
    if (config_.recorder != nullptr) {
      config_.recorder->RecordSessionsExpired(expired_ids);
    }
  }
  return expired;
}

int CrowdService::ExpireStaleSessions() {
  std::lock_guard<std::mutex> lock(mu_);
  return ExpireStaleSessionsLocked(NowNanos(), /*force=*/true);
}

CrowdService::SessionId CrowdService::StartSession(WorkerId worker) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = NowNanos();
  ExpireStaleSessionsLocked(now);
  SessionId id = next_session_++;
  Session& sess = sessions_[id];
  sess.worker = worker;
  sess.last_active_nanos = now;
  sessions_started_->Increment();
  TCROWD_TRACE(kService, kDebug, "session start", static_cast<uint64_t>(id),
               static_cast<uint64_t>(static_cast<uint32_t>(worker)));
  if (config_.recorder != nullptr) {
    config_.recorder->RecordSessionStart(static_cast<uint64_t>(id), worker);
  }
  return id;
}

std::vector<CellRef> CrowdService::RequestTasks(SessionId session, int k) {
  ScopedLatencyTimer timer(request_latency_);
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = NowNanos();
  ExpireStaleSessionsLocked(now);
  auto it = sessions_.find(session);
  if (it == sessions_.end() || k <= 0 || DrainedLocked()) return {};
  Session& sess = it->second;
  sess.last_active_nanos = now;

  // Remaining global budget caps the lease batch.
  int64_t headroom = config_.max_total_answers - budget_committed_;
  k = static_cast<int>(std::min<int64_t>(k, headroom));
  if (k <= 0) return {};

  // Cells the router must not hand out: finalized or fully committed tasks,
  // plus everything ANY session of this worker already holds — the policies
  // only know which cells the worker has *answered*, so in-flight leases of
  // a worker running concurrent sessions must be excluded here or the same
  // worker could answer one cell twice.
  std::vector<CellRef> unavailable;
  for (int i = 0; i < num_rows_; ++i) {
    for (int j = 0; j < schema_.num_columns(); ++j) {
      CellRef cell{i, j};
      if (!Assignable(TaskAt(cell))) unavailable.push_back(cell);
    }
  }
  for (const auto& entry : sessions_) {
    const Session& other = entry.second;
    if (other.worker == sess.worker) {
      unavailable.insert(unavailable.end(), other.leases.begin(),
                         other.leases.end());
    }
  }

  const int64_t backfilled_before = router_.backfilled();
  std::vector<CellRef> picked =
      router_.Route(schema_, answers_, sess.worker, k, unavailable);
  tasks_backfilled_->Increment(router_.backfilled() - backfilled_before);
  for (const CellRef& cell : picked) {
    ++TaskAt(cell).leases;
    sess.leases.push_back(cell);
    ++budget_committed_;
    tasks_assigned_->Increment();
  }
  TCROWD_TRACE(kRouter, kDebug, "leases granted",
               static_cast<uint64_t>(session), picked.size());
  // Routing depends on the policy's current fit — async refresh timing —
  // so the grant itself is the recorded decision, not the request.
  if (config_.recorder != nullptr) {
    config_.recorder->RecordLeases(static_cast<uint64_t>(session), picked);
  }
  return picked;
}

Status CrowdService::ApplyRecordedLeases(SessionId session,
                                         const std::vector<CellRef>& cells) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound(
        StrFormat("unknown session %lld", static_cast<long long>(session)));
  }
  for (const CellRef& cell : cells) {
    if (cell.row < 0 || cell.row >= num_rows_ || cell.col < 0 ||
        cell.col >= schema_.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("cell (%d,%d) out of range", cell.row, cell.col));
    }
  }
  Session& sess = it->second;
  sess.last_active_nanos = NowNanos();
  for (const CellRef& cell : cells) {
    ++TaskAt(cell).leases;
    sess.leases.push_back(cell);
    ++budget_committed_;
    tasks_assigned_->Increment();
  }
  TCROWD_TRACE(kReplay, kDebug, "replayed leases",
               static_cast<uint64_t>(session), cells.size());
  return Status::Ok();
}

Status CrowdService::AcceptAnswerLocked(Session* session, CellRef cell,
                                        const Value& value, Answer* out) {
  auto lease =
      std::find(session->leases.begin(), session->leases.end(), cell);
  if (lease == session->leases.end()) {
    answers_rejected_->Increment();
    return Status::FailedPrecondition(
        StrFormat("session holds no lease on cell (%d,%d)", cell.row,
                  cell.col));
  }
  const ColumnSpec& col = schema_.column(cell.col);
  bool type_ok =
      value.valid() && ((col.type == ColumnType::kCategorical &&
                         value.is_categorical() && value.label() >= 0 &&
                         value.label() < static_cast<int>(col.labels.size())) ||
                        (col.type == ColumnType::kContinuous &&
                         value.is_continuous()));
  if (!type_ok) {
    answers_rejected_->Increment();
    return Status::InvalidArgument(
        StrFormat("value %s does not fit column '%s'",
                  value.ToString().c_str(), col.name.c_str()));
  }

  session->leases.erase(lease);
  *out = Answer{session->worker, cell, value};
  answers_.Add(*out);
  TaskEntry& task = TaskAt(cell);
  --task.leases;
  ++task.answers;
  ++budget_spent_;
  answers_accepted_->Increment();
  TCROWD_TRACE(kService, kDebug, "answer accepted",
               static_cast<uint64_t>(static_cast<uint32_t>(session->worker)),
               static_cast<uint64_t>(budget_spent_));
  if (task.answers >= config_.target_answers_per_task && !task.finalized) {
    task.finalized = true;
    ++finalized_count_;
    tasks_finalized_->Increment();
  }
  // Keep the policy's model warm; the router refits on its own cadence.
  router_.OnAnswer(schema_, answers_, *out);
  return Status::Ok();
}

Status CrowdService::SubmitAnswer(SessionId session, CellRef cell,
                                  const Value& value) {
  ScopedLatencyTimer timer(submit_latency_);
  return SubmitItems(session, {{cell, value}}).front();
}

std::vector<Status> CrowdService::SubmitAnswerBatch(
    SessionId session, const std::vector<std::pair<CellRef, Value>>& items) {
  ScopedLatencyTimer timer(submit_latency_);
  answer_batches_->Increment();
  return SubmitItems(session, items);
}

std::vector<Status> CrowdService::SubmitItems(
    SessionId session, const std::vector<std::pair<CellRef, Value>>& items) {
  std::vector<Status> statuses;
  statuses.reserve(items.size());
  std::vector<Answer> accepted;
  accepted.reserve(items.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t now = NowNanos();
    ExpireStaleSessionsLocked(now);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      answers_rejected_->Increment(static_cast<int64_t>(items.size()));
      statuses.assign(
          items.size(),
          Status::NotFound(StrFormat("unknown session %lld",
                                     static_cast<long long>(session))));
    } else {
      Session& sess = it->second;
      sess.last_active_nanos = now;
      for (const auto& [cell, value] : items) {
        Answer answer;
        Status st = AcceptAnswerLocked(&sess, cell, value, &answer);
        if (st.ok()) accepted.push_back(answer);
        statuses.push_back(std::move(st));
      }
    }
    // Single submits and batches record the same kAnswerBatch frame; it
    // captures each item's acceptance status, so replay can assert the
    // replayed service reached the same verdicts.
    if (config_.recorder != nullptr) {
      std::vector<AnswerEventItem> recorded;
      recorded.reserve(items.size());
      for (size_t k = 0; k < items.size(); ++k) {
        recorded.push_back({items[k].first, items[k].second,
                            static_cast<uint8_t>(statuses[k].code())});
      }
      config_.recorder->RecordAnswerBatch(static_cast<uint64_t>(session),
                                          recorded);
    }
  }
  // One engine hand-off for the whole page, outside the service mutex: the
  // accepted answers enter the ingest queue in item order and may kick off
  // an async EM refresh.
  if (!accepted.empty()) {
    engine_->SubmitAnswerBatch(accepted.data(), accepted.size());
  }
  return statuses;
}

Status CrowdService::RetractAnswer(WorkerId worker, CellRef cell) {
  std::lock_guard<std::mutex> lock(mu_);
  auto record = [&](const Status& st) {
    if (config_.recorder == nullptr) return;
    config_.recorder->RecordRetract(worker, cell,
                                    static_cast<uint8_t>(st.code()));
  };
  if (cell.row < 0 || cell.row >= num_rows_ || cell.col < 0 ||
      cell.col >= schema_.num_columns()) {
    Status st = Status::InvalidArgument(
        StrFormat("cell (%d,%d) out of range", cell.row, cell.col));
    record(st);
    return st;
  }
  // Engine first: it owns the durable log, and a submit whose engine
  // hand-off is still in flight on another thread surfaces there as
  // NotFound — in that case the ledger must stay untouched too.
  Status st = engine_->RetractAnswer(worker, cell);
  record(st);
  TCROWD_TRACE(kService, kInfo, "retraction",
               static_cast<uint64_t>(static_cast<uint32_t>(worker)),
               static_cast<uint64_t>(st.ok() ? 1 : 0));
  if (!st.ok()) return st;

  bool removed = answers_.RemoveLast(worker, cell);
  TCROWD_CHECK(removed) << "ledger/engine retraction mismatch";
  TaskEntry& task = TaskAt(cell);
  --task.answers;
  --budget_spent_;
  --budget_committed_;
  if (task.finalized && task.answers < config_.target_answers_per_task) {
    // The task only reached its target thanks to the retracted answer;
    // reopen it so the router can backfill the hole.
    task.finalized = false;
    --finalized_count_;
  }
  answers_retracted_->Increment();
  return Status::Ok();
}

Status CrowdService::EndSession(SessionId session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound(
        StrFormat("unknown session %lld", static_cast<long long>(session)));
  }
  ReleaseLeasesLocked(&it->second);
  sessions_.erase(it);
  sessions_ended_->Increment();
  TCROWD_TRACE(kService, kDebug, "session end", static_cast<uint64_t>(session),
               sessions_.size());
  if (config_.recorder != nullptr) {
    config_.recorder->RecordSessionEnd(static_cast<uint64_t>(session));
  }
  return Status::Ok();
}

TaskState CrowdService::task_state(CellRef cell) const {
  std::lock_guard<std::mutex> lock(mu_);
  return StateOf(TaskAt(cell));
}

int CrowdService::AnswerCount(CellRef cell) const {
  std::lock_guard<std::mutex> lock(mu_);
  return TaskAt(cell).answers;
}

bool CrowdService::Drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DrainedLocked();
}

ServiceStats CrowdService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats stats;
  for (const TaskEntry& task : tasks_) {
    switch (StateOf(task)) {
      case TaskState::kOpen:
        ++stats.tasks_open;
        break;
      case TaskState::kAssigned:
        ++stats.tasks_assigned;
        break;
      case TaskState::kAnswered:
        ++stats.tasks_answered;
        break;
      case TaskState::kFinalized:
        ++stats.tasks_finalized;
        break;
    }
  }
  stats.sessions_started = sessions_started_->value();
  stats.sessions_active = static_cast<int64_t>(sessions_.size());
  stats.sessions_expired = sessions_expired_->value();
  stats.answers_accepted = budget_spent_;
  stats.answers_rejected = answers_rejected_->value();
  stats.answers_retracted = answers_retracted_->value();
  stats.answers_restored = answers_restored_->value();
  stats.assignments = tasks_assigned_->value();
  stats.budget_spent = budget_spent_;
  stats.budget_remaining = config_.max_total_answers - budget_committed_;
  stats.engine_refreshes = engine_->refresh_count();
  return stats;
}

InferenceResult CrowdService::Finalize() {
  InferenceResult result = engine_->Finalize();
  const uint64_t digest = TruthDigest(result.estimated_truth);
  TCROWD_TRACE(kService, kInfo, "finalize", digest,
               static_cast<uint64_t>(engine_->num_answers()));
  // The digest is the replay contract: a re-driven run must Finalize() to a
  // truth table with this exact bit pattern.
  if (config_.recorder != nullptr) {
    config_.recorder->RecordFinalize(
        digest, static_cast<uint64_t>(engine_->num_answers()));
  }
  return result;
}

}  // namespace tcrowd::service
