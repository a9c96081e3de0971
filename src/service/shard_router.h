#ifndef TCROWD_SERVICE_SHARD_ROUTER_H_
#define TCROWD_SERVICE_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "assignment/policy.h"
#include "service/crowd_service.h"
#include "service/shard_backend.h"

namespace tcrowd::service {

/// Contiguous tuple range a shard owns: global rows [row_begin, row_end).
struct ShardRange {
  int row_begin = 0;
  int row_end = 0;

  int num_rows() const { return row_end - row_begin; }
};

/// Even partition of `num_rows` into `num_shards` contiguous ranges; the
/// first (num_rows % num_shards) shards get one extra row.
std::vector<ShardRange> PartitionRows(int num_rows, int num_shards);

struct ShardRouterConfig {
  /// Engine shards the table is partitioned across (>= 1).
  int num_shards = 2;
  /// Per-shard service template. The router derives each shard's actual
  /// config from it: lease expiry moves to the router (sub-timeouts 0),
  /// the recorder stays router-level (sub-recorders null), checkpoint
  /// directories get a per-shard "/shard-NNN" suffix plus a namespace tag
  /// (docs/SHARDING.md), router seeds de-correlate per shard, and an
  /// explicit answer budget splits proportionally to each shard's cells.
  ServiceConfig base;
  /// Builds shard `i`'s assignment policy over its OWN sub-table shape.
  /// Required unless backend_factory is set (every in-process shard routes
  /// leases independently).
  std::function<std::unique_ptr<AssignmentPolicy>(int shard)> policy_factory;
  /// Builds shard `i`'s backend. Unset → LocalShardBackend over the derived
  /// per-shard config + policy_factory (today's in-process topology); set →
  /// any ShardBackend, e.g. a RemoteShardBackend per `tcrowd_serverd` shard
  /// daemon (the `--router` process topology, docs/SHARDING.md). Also
  /// re-invoked by RestoreShard to rebuild a crashed shard.
  std::function<std::unique_ptr<ShardBackend>(int shard)> backend_factory;
  /// Router-daemon resilience: a request routed to a down shard first
  /// re-runs the backend factory (reconnect, checkpoint/ledger agreement
  /// checks, sub-session re-open) before failing fast — so a shard daemon
  /// restarted from its snapshot dir rejoins on the next touch without
  /// restarting the router (whose in-memory arrival ledger must survive).
  bool auto_restore = false;
};

/// Multi-shard serving tier: partitions the table across N shards — each a
/// ShardBackend, in-process (LocalShardBackend owning a CrowdService:
/// engine + snapshot dir + router policy) or a remote `tcrowd_serverd`
/// daemon (RemoteShardBackend) — and presents them as ONE ServingBackend.
/// Sessions span all shards; leases, submits, and retractions route to the
/// shard owning the cell's row; and Finalize() merges the per-shard truth
/// states into one global answer set whose digest is bit-identical to a
/// single-shard run over the same accepted history
/// (tests/test_shard_router.cc, tests/test_remote_shard.cc).
///
/// The identity hinges on the global arrival ledger: worker quality couples
/// across tuples in the EM, so per-shard fits cannot simply concatenate.
/// Every accepted answer is stamped with a router-global sequence number in
/// submission order; Finalize() gathers each shard's live answer log
/// through ShardBackend::GatherLog — the shard ENGINE's log, in-process or
/// over the wire (kLogGather), so the crash drill genuinely exercises disk
/// restore — remaps local rows to global, merge-sorts by seq, and
/// batch-fits a fresh engine over the merged log, which the engine
/// Finalize contract makes bit-identical to the single-engine run that saw
/// the same history. See docs/SHARDING.md.
///
/// Thread-safety: same contract as CrowdService — all public methods may be
/// called from concurrent driver threads; router state AND every
/// ShardBackend call are serialized on the router mutex (backends are not
/// thread-safe, see shard_backend.h), so remote round-trips bound the
/// router's mutex hold times.
class ShardRouter : public ServingBackend {
 public:
  ShardRouter(const Schema& schema, int num_rows, ShardRouterConfig config);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // ---- ServingBackend surface (semantics documented on the interface).
  SessionId StartSession(WorkerId worker) override;
  std::vector<CellRef> RequestTasks(SessionId session, int k) override;
  Status SubmitAnswer(SessionId session, CellRef cell,
                      const Value& value) override;
  std::vector<Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<CellRef, Value>>& items) override;
  Status RetractAnswer(WorkerId worker, CellRef cell) override;
  Status ApplyRecordedLeases(SessionId session,
                             const std::vector<CellRef>& cells) override;
  Status EndSession(SessionId session) override;
  int ExpireStaleSessions() override;
  bool Drained() const override;
  ServiceStats Stats() const override;
  Status checkpoint_status() const override;
  InferenceResult Finalize() override;
  MetricsRegistry& metrics() override { return metrics_; }
  const Schema& schema() const override { return schema_; }
  int num_rows() const override { return num_rows_; }
  int64_t answers_since_refresh() override;
  void RequestRefresh() override;
  uint64_t num_answers() override;
  int staleness_threshold() const override {
    return config_.base.inference.staleness_threshold;
  }
  /// The merged global live log (seq order, global rows) — what a router
  /// daemon serves for kLogGather.
  std::vector<Answer> GatherAnswerLog() override;

  // ---- Sharding surface.
  int shards() const { return config_.num_shards; }
  const ShardRange& range(int shard) const { return ranges_[shard]; }
  int ShardForRow(int row) const;
  /// Shard `i`'s in-process sub-service; null while crashed (see
  /// CrashShard) and null for a remote backend (test/introspection seam).
  CrowdService* shard(int i) {
    return shards_[i] ? shards_[i]->local_service() : nullptr;
  }
  /// Shard `i`'s backend; null while crashed.
  ShardBackend* backend(int i) { return shards_[i].get(); }
  /// Fault-injection seam: tears down shard `i`'s backend (its snapshot
  /// directory — or remote daemon — survives). Requests routed to a downed
  /// shard fail with FailedPrecondition; leases spread over the remaining
  /// shards, which keep serving undisturbed.
  void CrashShard(int i);
  /// Rebuilds shard `i` via the backend factory — from its own snapshot
  /// directory in-process, or by reconnecting to its (restarted) daemon —
  /// and re-opens sub-sessions for every live router session. Internal
  /// error when the restored answer log disagrees with the router's live
  /// ledger for the shard — merged Finalize identity could no longer be
  /// guaranteed.
  Status RestoreShard(int i);

 private:
  /// One accepted answer's ledger entry: its global arrival seq, the
  /// answer with GLOBAL row coordinates, and liveness (retraction clears
  /// it).
  struct SeqEntry {
    uint64_t seq = 0;
    Answer answer;
    bool live = true;
  };
  struct GlobalSession {
    WorkerId worker = -1;
    /// Sub-session ids, indexed by shard; -1 while the shard is down.
    std::vector<SessionId> sub;
    int64_t last_active_nanos = 0;
  };

  int64_t NowNanos() const;
  /// Builds shard `i`'s backend: the configured factory, or a
  /// LocalShardBackend over DeriveShardServiceConfig + policy_factory.
  std::unique_ptr<ShardBackend> MakeBackend(int i) const;
  /// True while shard `s` has a reachable backend; `mu_` must be held.
  bool UpLocked(int s) const {
    return shards_[s] != nullptr && !shards_[s]->down();
  }
  /// Shard `s`'s backend if reachable — after an auto_restore rebuild
  /// attempt when it is not. Null means the shard is down; callers must
  /// re-read a session's sub id afterwards (restore re-opens them).
  /// `mu_` must be held.
  ShardBackend* LiveShardLocked(int s);
  /// Factory rebuild + agreement checks + sub-session re-open; `mu_` must
  /// be held and the shard must be down.
  Status RestoreShardLocked(int i);
  /// The merged live log in seq order (global rows); `mu_` must be held.
  std::vector<Answer> GatherMergedLogLocked();
  /// Lazy lease-deadline sweep mirroring CrowdService (watermark-capped
  /// unless `force`); `mu_` must be held. Returns sessions expired.
  int ExpireStaleSessionsLocked(int64_t now, bool force);
  /// Ends `session`'s sub-sessions on every live shard; `mu_` must be held.
  void EndSubSessionsLocked(GlobalSession* session);
  /// SubmitAnswerBatch without counting a batch (SubmitAnswer is one item).
  std::vector<Status> SubmitItems(
      SessionId session, const std::vector<std::pair<CellRef, Value>>& items);

  const Schema schema_;
  const int num_rows_;
  ShardRouterConfig config_;
  std::vector<ShardRange> ranges_;
  std::vector<std::unique_ptr<ShardBackend>> shards_;

  /// The service.* counters CrowdService exports, counted at the router's
  /// own API boundary (a shard's registry counts its sub-sessions and its
  /// share of the traffic, and is not exported by the router).
  MetricsRegistry metrics_;
  Counter* sessions_started_;
  Counter* sessions_ended_;
  Counter* sessions_expired_;
  Counter* tasks_assigned_;
  Counter* answers_accepted_;
  Counter* answers_rejected_;
  Counter* answers_retracted_;
  Counter* answer_batches_;

  mutable std::mutex mu_;
  std::unordered_map<SessionId, GlobalSession> sessions_;
  SessionId next_session_ = 1;
  int64_t last_sweep_nanos_ = 0;
  uint64_t next_seq_ = 1;
  /// Per-shard arrival ledgers, append-ordered exactly like the shard
  /// engine's answer log (retraction clears the NEWEST live matching
  /// entry, mirroring engine semantics).
  std::vector<std::vector<SeqEntry>> ledgers_;
  /// Rotates the shard a RequestTasks fan-out starts at, spreading lease
  /// pressure across shards.
  size_t spread_cursor_ = 0;
};

}  // namespace tcrowd::service

#endif  // TCROWD_SERVICE_SHARD_ROUTER_H_
