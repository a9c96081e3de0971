#ifndef TCROWD_SERVICE_CROWD_SERVICE_H_
#define TCROWD_SERVICE_CROWD_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/answer.h"
#include "platform/metrics.h"
#include "service/incremental_engine.h"
#include "service/task_router.h"

namespace tcrowd {
class EventRecorder;
}  // namespace tcrowd

namespace tcrowd::service {

/// Lifecycle of one task (cell) inside the service.
enum class TaskState {
  kOpen,       ///< No answers, no outstanding leases.
  kAssigned,   ///< At least one lease is out with a worker session.
  kAnswered,   ///< Has answers, none in flight, below its target count.
  kFinalized,  ///< Reached its per-task answer target; no longer assignable.
};

const char* TaskStateName(TaskState state);

struct ServiceConfig {
  /// A task is finalized once this many answers were accepted for it.
  int target_answers_per_task = 5;
  /// Global answer budget; -1 derives target_answers_per_task * num_cells.
  /// Outstanding leases count against the budget (committed accounting), so
  /// the service never hands out work it cannot pay for.
  int64_t max_total_answers = -1;
  /// Lease deadline: a session with no activity (StartSession /
  /// RequestTasks / SubmitAnswer) for longer than this is expired — its
  /// unanswered leases return to the open pool and their budget commitment
  /// is refunded, exactly as if the worker had called EndSession. Expiry is
  /// enforced lazily on the request paths (a watermark caps the sweep at
  /// once per deadline period, so reclamation there may lag by up to one
  /// extra period) and exactly on demand via
  /// CrowdService::ExpireStaleSessions. <= 0 disables expiry.
  double session_lease_timeout_seconds = 0.0;
  /// Test seam: monotonic nanosecond clock used for lease deadlines.
  /// Defaults to std::chrono::steady_clock when unset.
  std::function<int64_t()> clock_nanos;
  /// Deterministic event recorder (unowned; must outlive the service).
  /// When set, every nondeterministic service decision — session ids,
  /// granted leases, acceptance statuses, expiry sweeps, the Finalize
  /// digest — is appended to the event log under the service mutex, so a
  /// replay driver reproduces the run bit-identically. Null disables
  /// recording. The engine receives the same recorder for seal events.
  EventRecorder* recorder = nullptr;
  InferenceArgs inference;
  RouterOptions router;
};

/// Aggregate state snapshot, exported next to the metrics registry.
struct ServiceStats {
  int tasks_open = 0;
  int tasks_assigned = 0;
  int tasks_answered = 0;
  int tasks_finalized = 0;
  int64_t sessions_started = 0;
  int64_t sessions_active = 0;
  int64_t sessions_expired = 0;
  int64_t answers_accepted = 0;
  int64_t answers_rejected = 0;
  /// Accepted answers later retracted (their budget was refunded; they are
  /// no longer part of answers_accepted/budget_spent).
  int64_t answers_retracted = 0;
  /// Answers recovered from the checkpoint directory at startup (already
  /// counted in budget_spent; their tasks may start finalized).
  int64_t answers_restored = 0;
  int64_t assignments = 0;
  int64_t budget_spent = 0;
  int64_t budget_remaining = 0;
  int engine_refreshes = 0;
};

/// The serving surface drivers program against: everything the network
/// front-end (net::Server), the load generator, and the tools need from a
/// crowd-serving backend, whether one engine serves the whole table
/// (CrowdService) or the table is partitioned across N engine shards behind
/// the ShardRouter façade (src/service/shard_router.h). Keeping the surface
/// abstract is what lets `tcrowd_serverd --shards=N` swap the topology
/// without the event loop knowing.
///
/// Do not conflate this with ShardBackend (src/service/shard_backend.h):
/// ServingBackend is the NORTH-facing façade (drivers/front-ends talk DOWN
/// into a whole serving topology, GLOBAL row coordinates, thread-safe —
/// every implementation serializes internally, so concurrent driver
/// threads may call it freely), while ShardBackend is the SOUTH-facing
/// seam (the ShardRouter talks DOWN to ONE shard — in-process or a remote
/// daemon — LOCAL row coordinates, NOT thread-safe: the router serializes
/// calls under its own mutex). A ShardRouter is a ServingBackend built on
/// N ShardBackends.
class ServingBackend {
 public:
  using SessionId = int64_t;

  virtual ~ServingBackend() = default;

  virtual SessionId StartSession(WorkerId worker) = 0;
  virtual std::vector<CellRef> RequestTasks(SessionId session, int k) = 0;
  virtual Status SubmitAnswer(SessionId session, CellRef cell,
                              const Value& value) = 0;
  virtual std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) = 0;
  virtual Status RetractAnswer(WorkerId worker, CellRef cell) = 0;
  /// Replay seam: books exactly `cells` as leases without consulting any
  /// routing policy (see CrowdService::ApplyRecordedLeases).
  virtual Status ApplyRecordedLeases(SessionId session,
                                     const std::vector<CellRef>& cells) = 0;
  virtual Status EndSession(SessionId session) = 0;
  virtual int ExpireStaleSessions() = 0;
  virtual bool Drained() const = 0;
  virtual ServiceStats Stats() const = 0;
  virtual Status checkpoint_status() const = 0;
  virtual InferenceResult Finalize() = 0;
  /// The ordered live answer log (arrival order, retractions already
  /// removed) — the gather seam behind the merged Finalize and the
  /// kLogGather wire request: a router daemon answers it from its merged
  /// ledger, a single-engine daemon from its engine snapshot. Blocks only
  /// briefly (one mutex + a copy), never on an EM fit.
  virtual std::vector<Answer> GatherAnswerLog() = 0;
  virtual MetricsRegistry& metrics() = 0;
  virtual const Schema& schema() const = 0;
  virtual int num_rows() const = 0;

  /// Admission-control meters (net::Server backpressure): answers absorbed
  /// since the last inference refresh (the laggiest shard in a sharded
  /// backend), an explicit refresh request that clears the meter, the total
  /// absorbed answer count, and the staleness threshold the in-flight
  /// budget is derived from.
  virtual int64_t answers_since_refresh() = 0;
  virtual void RequestRefresh() = 0;
  virtual uint64_t num_answers() = 0;
  virtual int staleness_threshold() const = 0;
};

/// The online crowdsourcing façade over the batch pipeline: workers open
/// sessions, lease the most informative tasks from the TaskRouter, submit
/// answers that feed the IncrementalInferenceEngine, and tasks progress
/// open → assigned → answered → finalized under per-task and global budget
/// accounting.
///
/// Durability: when config.inference.checkpoint names a directory, the
/// engine restores the durable answer log at construction and the service
/// rebuilds its task/budget ledger from it (per-cell answer counts,
/// budget_spent, finalized tasks) — so a restarted service resumes exactly
/// where the durable log left off. Sessions and leases are deliberately
/// NOT persisted: they are seconds-lived worker state, and the lease
/// accounting self-heals (a crashed service's in-flight leases simply
/// never existed in the restarted one). See docs/PERSISTENCE.md.
///
/// Thread-safety: all public methods may be called from concurrent driver
/// threads. Request handling is serialized on one service mutex (policies
/// are stateful); truth-inference refreshes run asynchronously on the
/// service's own one-thread refresh worker and never block the request
/// path. The engine runs at most one refresh at a time (requests coalesce),
/// so one worker is all the refreshes ever occupy; their E/M steps fan out
/// on the engine's EmExecutor (config.inference.num_shards).
class CrowdService : public ServingBackend {
 public:
  using SessionId = ServingBackend::SessionId;

  CrowdService(const Schema& schema, int num_rows,
               std::unique_ptr<AssignmentPolicy> policy,
               ServiceConfig config);
  ~CrowdService() override;

  CrowdService(const CrowdService&) = delete;
  CrowdService& operator=(const CrowdService&) = delete;

  /// Opens a worker session. Ids are unique for the service's lifetime.
  /// Never blocks on inference.
  SessionId StartSession(WorkerId worker) override;

  /// Leases up to `k` tasks to the session. Empty when the session is
  /// unknown/closed/expired, the budget is exhausted, or nothing is
  /// assignable. The first lease after answers exist runs the routing
  /// policy's one synchronous cold fit; later policy refits run on the
  /// policy's own worker thread (TaskRouter::OnAnswer).
  std::vector<CellRef> RequestTasks(SessionId session, int k) override;

  /// Accepts one answer for a cell the session holds a lease on. Rejects
  /// answers without a lease, with a mismatched value type, or an
  /// out-of-range label. Never blocks on an EM refresh in the default
  /// async configuration (refreshes run on the service's refresh worker);
  /// with inference.async_refresh = false the staleness-crossing call runs
  /// the refresh inline.
  Status SubmitAnswer(SessionId session, CellRef cell,
                      const Value& value) override;

  /// Batched ingestion: accepts a whole page of answers from one session
  /// under a single acquisition of the service mutex, then hands the
  /// accepted ones to the inference engine in one
  /// IncrementalInferenceEngine::SubmitAnswerBatch call (one ingest-queue
  /// pass instead of per-answer locking). Validation, task-state
  /// transitions, budget accounting, and router warm-up are identical to
  /// calling SubmitAnswer once per item, in item order — a duplicate cell
  /// within the batch consumes the lease with its first occurrence and is
  /// rejected on the second. Returns one Status per item, aligned with the
  /// input. Never blocks on an EM refresh in async mode.
  std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) override;

  /// Retracts the newest accepted answer `worker` gave on `cell` — the
  /// online tombstone path: the engine tombstones the answer in its
  /// segmented store (journaling a durable retraction record when
  /// checkpointing is on), the service ledger refunds the answer's budget
  /// spend/commitment, and a task that only reached its target thanks to
  /// the retracted answer is un-finalized so the router can backfill it.
  /// Sessionless by design (a worker may disavow an answer long after the
  /// session that produced it expired). NotFound when the worker has no
  /// live answer on the cell. Runs under the service mutex end to end —
  /// retraction is the rare slow path, consistency wins.
  Status RetractAnswer(WorkerId worker, CellRef cell) override;

  /// Replay seam: books exactly `cells` as leases on the session — task
  /// lease counts, budget commitment, session state — WITHOUT consulting
  /// the router. Replay drives lease grants from the recorded log through
  /// this instead of RequestTasks, so routing decisions that depended on
  /// the original run's async refresh timing are reproduced verbatim.
  /// Rejects an unknown session or an out-of-range cell.
  Status ApplyRecordedLeases(SessionId session,
                             const std::vector<CellRef>& cells) override;

  /// Closes the session; unanswered leases return to the open pool (and
  /// their budget commitment is refunded) so backfill can re-route them.
  /// Never blocks on inference.
  Status EndSession(SessionId session) override;

  /// Sweeps sessions whose lease deadline has passed (workers that never
  /// called EndSession), releasing their leases and refunding their budget
  /// commitments. Runs automatically on every StartSession / RequestTasks /
  /// SubmitAnswer; exposed for drivers that want deterministic reclamation
  /// (e.g. between replay phases). Returns the number of sessions expired
  /// by this sweep. No-op when session_lease_timeout_seconds <= 0.
  int ExpireStaleSessions() override;

  TaskState task_state(CellRef cell) const;
  int AnswerCount(CellRef cell) const;
  /// True when no further assignment can ever happen (budget exhausted or
  /// every task finalized).
  bool Drained() const override;

  /// Aggregate snapshot; takes the service mutex briefly, never blocks on
  /// inference.
  ServiceStats Stats() const override;
  /// Health of the persistence subsystem (OK when checkpointing is
  /// disabled). A restore failure surfaces here — the service still comes
  /// up empty and serving, it just is not durable.
  Status checkpoint_status() const override {
    return engine_->checkpoint_status();
  }
  /// Answers recovered from the checkpoint directory at construction.
  int64_t restored_answers() const {
    return static_cast<int64_t>(engine_->restored_answers());
  }
  MetricsRegistry& metrics() override { return metrics_; }
  IncrementalInferenceEngine& engine() { return *engine_; }
  const Schema& schema() const override { return schema_; }
  int num_rows() const override { return num_rows_; }
  const ServiceConfig& config() const { return config_; }

  // ServingBackend admission meters: thin forwards onto the single engine.
  int64_t answers_since_refresh() override {
    return engine_->answers_since_refresh();
  }
  void RequestRefresh() override { engine_->RequestRefresh(); }
  uint64_t num_answers() override { return engine_->num_answers(); }
  int staleness_threshold() const override {
    return config_.inference.staleness_threshold;
  }

  /// Waits out pending refreshes and returns the final batch-converged
  /// truth inference over everything collected. Blocks for a full EM fit;
  /// concurrent submits keep being accepted but are not part of the
  /// returned result's snapshot.
  InferenceResult Finalize() override;

  /// The engine's live answers in arrival order (ServingBackend contract).
  std::vector<Answer> GatherAnswerLog() override {
    return engine_->SnapshotAnswers().answers();
  }

 private:
  struct TaskEntry {
    int answers = 0;
    int leases = 0;
    bool finalized = false;
  };
  struct Session {
    WorkerId worker = -1;
    std::vector<CellRef> leases;
    int64_t last_active_nanos = 0;  ///< lease deadline base (config clock)
  };

  TaskState StateOf(const TaskEntry& task) const;
  bool Assignable(const TaskEntry& task) const;
  TaskEntry& TaskAt(CellRef cell);
  const TaskEntry& TaskAt(CellRef cell) const;
  bool DrainedLocked() const;
  int64_t NowNanos() const;
  /// Releases the session's leases and refunds their commitments; `mu_`
  /// must be held. Does not erase the session from sessions_.
  void ReleaseLeasesLocked(Session* session);
  /// Validates and books one answer (lease check, type check, task/budget
  /// accounting, router warm-up); `mu_` must be held. On success fills
  /// `*out` for the engine hand-off.
  Status AcceptAnswerLocked(Session* session, CellRef cell,
                            const Value& value, Answer* out);
  /// The submit path behind SubmitAnswer and SubmitAnswerBatch: expiry
  /// sweep, session lookup, per-item acceptance, one kAnswerBatch frame,
  /// and one engine hand-off for the accepted items. One Status per item.
  std::vector<Status> SubmitItems(
      SessionId session, const std::vector<std::pair<CellRef, Value>>& items);
  /// Expires every session idle past the lease deadline; `mu_` must be
  /// held. Returns the number of sessions expired. Unless `force`, the
  /// scan is skipped while the sweep watermark proves nothing can be
  /// overdue yet (keeps the request hot paths O(1) in session count).
  int ExpireStaleSessionsLocked(int64_t now, bool force = false);

  const Schema schema_;
  const int num_rows_;
  ServiceConfig config_;

  MetricsRegistry metrics_;
  // Cached hot-path metric handles (stable for the registry's lifetime).
  Counter* sessions_started_;
  Counter* sessions_ended_;
  Counter* sessions_expired_;
  Counter* tasks_assigned_;
  /// Leased cells the router's backfill chose because the policy came up
  /// short.
  Counter* tasks_backfilled_;
  Counter* answers_accepted_;
  Counter* answers_rejected_;
  Counter* answers_retracted_;
  Counter* answer_batches_;
  Counter* answers_restored_;
  Counter* tasks_finalized_;
  LatencyStats* request_latency_;
  LatencyStats* submit_latency_;

  // Order matters: engine_ schedules refreshes on refresh_worker_ and is
  // declared after it, so it is destroyed first and can drain its in-flight
  // refresh.
  ThreadPool refresh_worker_{1};
  std::unique_ptr<IncrementalInferenceEngine> engine_;
  TaskRouter router_;

  mutable std::mutex mu_;
  AnswerSet answers_;                ///< canonical log; engine keeps a copy
  std::vector<TaskEntry> tasks_;     ///< row-major
  std::unordered_map<SessionId, Session> sessions_;
  SessionId next_session_ = 1;
  int64_t last_sweep_nanos_ = 0;  ///< watermark of the last expiry scan
  int64_t budget_spent_ = 0;      ///< accepted answers (net of retractions)
  int64_t budget_committed_ = 0;  ///< accepted + outstanding leases
  int finalized_count_ = 0;
};

}  // namespace tcrowd::service

#endif  // TCROWD_SERVICE_CROWD_SERVICE_H_
