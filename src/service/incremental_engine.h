#ifndef TCROWD_SERVICE_INCREMENTAL_ENGINE_H_
#define TCROWD_SERVICE_INCREMENTAL_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/answer.h"
#include "inference/em_executor.h"
#include "inference/inference_result.h"
#include "inference/segment_store.h"
#include "inference/tcrowd_model.h"
#include "service/snapshot_store.h"

namespace tcrowd {
class EventRecorder;
}  // namespace tcrowd

namespace tcrowd::service {

/// MAGPIE-style argument block configuring the online inference engine: one
/// plain struct carries the method choice, the model knobs, and the thread
/// control in a single hand-off.
struct InferenceArgs {
  /// Truth-inference method serving the estimates. "tcrowd" (default) and
  /// its restricted variants "tc-onlycate"/"tc-onlycont" get the full
  /// incremental path; "mv", "median", "crh", "catd", "ds", "zencrowd",
  /// "glad", "gtm" fall back to periodic batch refits.
  std::string method = "tcrowd";

  /// Model knobs for the T-Crowd EM (ignored by baseline methods).
  TCrowdOptions tcrowd_options = TCrowdOptions::Fast();

  /// A full EM refresh is scheduled once this many answers have been
  /// absorbed since the last (started) refresh.
  int staleness_threshold = 64;

  /// Shards of the engine's persistent EmExecutor, across which every
  /// refresh and Finalize() fans its E/M steps: the one parallelism setting
  /// of the serving stack (`--threads`). The executor (and its thread
  /// pool, which only exists above one shard) lives as long as the engine,
  /// so refreshes never spawn threads. A batch TCrowdModel::Fit on an
  /// EmExecutor of the same shard count reproduces Finalize() bit-for-bit.
  int num_shards = 1;

  /// When set, refreshes run as background jobs on the caller-supplied
  /// common::ThreadPool and SubmitAnswer never blocks on a refit; when
  /// clear (or no pool is given), refreshes run inline.
  bool async_refresh = true;

  /// Answers required before the first fit is attempted (EM on a nearly
  /// empty matrix is noise).
  int min_answers_for_fit = 8;

  /// Submitted answers buffer in the engine's ingest queue and are drained
  /// into the answer store's tail segment in one pass once this many are
  /// queued (or earlier, when a staleness crossing / read needs them) —
  /// amortizing the engine lock and the incremental posterior updates over
  /// the batch instead of locking per answer. 1 restores per-answer
  /// absorption.
  int ingest_batch_size = 32;

  /// Segment substrate tuning: compaction thresholds of the engine-owned
  /// SegmentedAnswerStore (fragmentation, epoch growth, tombstones).
  SegmentedAnswerStore::Options store;

  /// Durable segment persistence (docs/PERSISTENCE.md). When a directory is
  /// set, the engine restores the answer log from it at construction,
  /// journals every ingest-drained batch, and persists each newly sealed
  /// slice of the log piggybacked on the refresh seal — keeping the hot
  /// path O(new answers). Empty (default) disables persistence entirely.
  CheckpointArgs checkpoint;

  /// Event recorder (unowned, nullable): the engine records a kSeal event
  /// after each tail seal. CrowdService plumbs its configured recorder in
  /// here; seals are informational for replay (which force-compacts at
  /// Finalize anyway) but load-bearing for incident forensics.
  EventRecorder* recorder = nullptr;
};

/// Online truth inference around the batch models: owns the growing
/// segmented answer store (the service's single indexed copy — every
/// consumer reads it from here instead of re-indexing answer logs), absorbs
/// answers batch-wise with cheap per-cell Bayes steps, and re-converges
/// with a sharded EM refresh whenever the incremental state has gone stale.
///
/// The answer path (see docs/DATA_LIFECYCLE.md):
///
///   SubmitAnswer/SubmitAnswerBatch -> ingest queue -> (drain) tail segment
///   -> SealAndSnapshot() seals the tail -> EM streams the sealed segments
///
/// A refresh seals ONLY the new tail (O(new answers)) and snapshots a
/// vector of segment pointers — it never copies the answer matrix and never
/// rebuilds the layout of previously sealed answers, so refresh cost scales
/// with what arrived since the last refresh, not with total history.
///
/// Refreshes run the exact same hot loop as the batch TCrowdModel (both fit
/// through the segmented snapshot + EmExecutor), on a persistent executor
/// owned by this engine, so no refresh ever pays thread start-up. Every
/// refresh after the first starts the EM from the installed fit's
/// alpha/beta/phi (TCrowdWarmStart) instead of the neutral initialization;
/// Finalize() stays a cold batch fit. Refresh requests arriving while a
/// refresh is running coalesce into exactly one follow-up refresh.
///
/// Thread-safety: every public method may be called concurrently. Internal
/// state is guarded by one engine mutex; the ingest queue has its own
/// cheaper mutex so submits don't contend with reads or refresh installs;
/// fits stream immutable segment snapshots so the submit path never waits
/// on EM. Read APIs drain the ingest queue first (read-your-writes).
class IncrementalInferenceEngine {
 public:
  /// `pool` (optional, unowned) runs async refreshes; it must outlive the
  /// engine. Pass nullptr to force inline refreshes. The constructor also
  /// builds the engine's own persistent EmExecutor of max(1, num_shards)
  /// shards, spawning its worker threads once (none for one shard).
  IncrementalInferenceEngine(const Schema& schema, int num_rows,
                             InferenceArgs args, ThreadPool* pool);
  /// Blocks until any in-flight or coalesced-pending refresh has drained,
  /// then joins the executor's pool.
  ~IncrementalInferenceEngine();

  IncrementalInferenceEngine(const IncrementalInferenceEngine&) = delete;
  IncrementalInferenceEngine& operator=(const IncrementalInferenceEngine&) =
      delete;

  /// Queues the answer for ingestion. The queue is drained into the store's
  /// tail segment — applying the incremental posterior updates in one
  /// locked pass — when ingest_batch_size answers have gathered, when
  /// staleness crosses the refresh threshold, or when a read needs the
  /// answers. Never blocks on EM in async mode; in inline mode the
  /// staleness-crossing call runs the refresh itself.
  void SubmitAnswer(const Answer& answer);

  /// Queues a whole batch under one ingest lock; the batched ingestion
  /// entry point behind CrowdService::SubmitAnswerBatch. Answers keep their
  /// in-batch order in the global log. Same drain/refresh semantics as
  /// SubmitAnswer.
  void SubmitAnswerBatch(const Answer* answers, size_t n);

  /// Explicitly schedules a full refresh (subject to min_answers_for_fit).
  /// If one is already running, the request coalesces: exactly one
  /// follow-up refresh runs after the current one installs, no matter how
  /// many requests arrived meanwhile. Non-blocking in async mode; runs the
  /// refresh inline otherwise.
  void RequestRefresh();

  /// Retracts the newest live answer `worker` gave on `cell`: tombstones it
  /// in the store (per-cell counts drop immediately; the physical removal
  /// happens at the next seal), journals a durable retraction record when
  /// checkpointing is on, and counts toward staleness so a refresh
  /// re-converges without the answer. The incremental posterior keeps the
  /// retracted evidence until that refresh; Finalize() is always exact
  /// (it force-compacts to the live answers first). NotFound when the
  /// worker has no live answer on the cell.
  Status RetractAnswer(WorkerId worker, CellRef cell);

  /// Full export of the current answer log as a plain AnswerSet. O(total
  /// answers) by design — this is the test/baseline path, NOT the refresh
  /// path (refreshes snapshot segment pointers instead). Drains the ingest
  /// queue first.
  AnswerSet SnapshotAnswers();
  /// Number of answers absorbed so far (drains the ingest queue).
  size_t num_answers();

  /// Current point estimate for one cell (incrementally updated between
  /// refreshes). Missing value before the first fit / without answers.
  /// Drains the ingest queue so a submitted answer is always visible.
  Value Estimate(CellRef cell);
  /// Current posterior entropy of one cell; 0 before the first fit.
  double CellEntropy(CellRef cell);
  /// Current full estimated table (missing cells where nothing is known).
  Table EstimatedTruth();

  /// Blocks until no refresh is running, queued behind a submit, or
  /// pending through coalescing.
  void WaitForRefresh();

  /// Drains pending ingests and refreshes, compacts the store (fresh
  /// standardization epoch and worker registry over everything collected —
  /// exactly what the batch model computes), then runs one final full
  /// batch-converged fit on the persistent executor and returns it. The
  /// finalized truths therefore match the batch model run on the same
  /// answer set bit for bit. Blocks.
  InferenceResult Finalize();

  /// Diagnostics. Each takes the engine mutex briefly; never blocks on EM.
  int refresh_count() const;
  /// Answers absorbed into the store since the last scheduled refresh
  /// (excludes answers still buffered in the ingest queue).
  int answers_since_refresh() const;
  bool fitted() const;
  const InferenceArgs& args() const { return args_; }
  /// Substrate counters of the engine-owned store (seals, compactions,
  /// re-indexed entries) — what the no-O(total)-rebuild regression test and
  /// bench_ingest read. Drains the ingest queue.
  SegmentedAnswerStore::Stats store_stats();

  /// Health of the persistence subsystem. OK while checkpointing is
  /// disabled or working; once an open/restore or write fails the engine
  /// stops persisting (it keeps serving from memory — durability degrades,
  /// inference does not) and this returns the first error.
  Status checkpoint_status() const;
  /// Live answers recovered from the checkpoint directory at construction
  /// (durable log minus durable retractions). Constant after the
  /// constructor returns.
  size_t restored_answers() const { return restored_; }
  /// Durable retractions replayed at construction. Constant after the
  /// constructor returns.
  size_t restored_retractions() const { return restored_retractions_; }
  /// Retractions accepted by this engine instance (restored ones excluded).
  size_t num_retractions() const;

  /// True for "tcrowd" and its restricted tc-onlycate/tc-onlycont variants,
  /// which all run the incremental path.
  static bool IsTCrowdMethod(const std::string& method);

 private:
  /// The T-Crowd model (full or restricted variant) for `args_.method`.
  TCrowdModel MakeTCrowdModel() const;
  /// Builds the batch model for `args_.method` (never null; unknown names
  /// fall back to T-Crowd).
  std::unique_ptr<TruthInference> MakeBatchMethod() const;

  /// Moves every queued answer into the store's tail and (unless
  /// `apply_updates` is false because the caller is about to install a
  /// fresh state and replay the tail) applies the incremental posterior
  /// updates; `mu_` must be held (takes `ingest_mu_` briefly inside —
  /// always in that order).
  void DrainIngestLocked(bool apply_updates = true);
  /// Drains, then schedules a refresh if the absorbed state is stale.
  void DrainAndMaybeRefresh();
  /// Schedules (or runs inline) a refresh; `mu_` must be held. Sets the
  /// coalescing flag instead when a refresh is already in flight.
  void ScheduleRefreshLocked(bool* run_inline);
  /// The refresh body: seal + segment-pointer snapshot (and a copy of the
  /// installed parameters to warm-start from), fit, install, replay the
  /// tail; loops while coalesced requests are pending.
  void RunRefresh();
  /// Staleness predicate; `mu_` must be held.
  bool StaleLocked() const;
  /// Restores the answer log from the snapshot directory (constructor
  /// only, before any concurrency; re-seals at the durable segment
  /// boundaries). Disables persistence on failure.
  void RestoreFromCheckpoint();
  /// Persists the not-yet-durable slice of the append-only log
  /// (`unsealed_log_`) after a SealAndSnapshot() and resets the journal;
  /// `mu_` must be held (the tail is empty at that point, so everything in
  /// the slice is sealed). O(new answers). Disables persistence on failure.
  void PersistSealedLocked();
  /// Moves `pending_dead_` into the sorted `applied_dead_` set; must be
  /// called under `mu_` right after every SealAndSnapshot(), which is the
  /// moment the store physically removes pending tombstones and renumbers.
  void AbsorbAppliedTombstonesLocked();
  /// Store id currently holding log id `log_id` (= log id minus the
  /// applied retractions before it); `mu_` must be held and the id live.
  size_t StoreIdForLocked(uint64_t log_id) const;
  /// Records a persistence failure and stops persisting; `mu_` must be
  /// held (or the constructor running single-threaded).
  void DisableCheckpointing(const Status& error, const char* during);

  const Schema schema_;
  const int num_rows_;
  const InferenceArgs args_;
  ThreadPool* const pool_;  // unowned; nullptr = inline refresh

  /// Persistent sharded EM substrate: one pool + scratch for the engine's
  /// lifetime, reused by every refresh and by Finalize.
  std::unique_ptr<EmExecutor> executor_;

  /// Ingest queue: submits append here under `ingest_mu_` only, so the
  /// submit hot path never contends with reads, installs, or the Bayes
  /// updates. Lock order: mu_ before ingest_mu_ (never the reverse).
  std::mutex ingest_mu_;
  std::vector<Answer> ingest_;
  /// Answers ever queued (ingest + absorbed); lock-free staleness hints.
  std::atomic<size_t> total_queued_{0};
  std::atomic<int> absorbed_since_refresh_{0};
  std::atomic<bool> fitted_flag_{false};

  mutable std::mutex mu_;
  std::condition_variable refresh_done_;
  /// The segmented answer log (tail + sealed immutable segments).
  SegmentedAnswerStore store_;
  /// Durable side of the log (null when checkpointing is disabled or has
  /// failed). All access under `mu_` (constructor excepted).
  std::unique_ptr<SnapshotStore> snapshot_;
  Status checkpoint_status_;
  size_t restored_ = 0;
  size_t restored_retractions_ = 0;

  // ---- Retraction bookkeeping (all under `mu_`). The durable log is
  // append-only in LOG-ID space: every accepted answer gets the next log id
  // forever, retractions are separate records, and the in-memory store's
  // global ids are the log ids minus the retractions already applied by a
  // seal. ----
  /// Answers ever accepted (monotonic; store ids are log-space minus
  /// applied retractions).
  uint64_t log_size_ = 0;
  /// Unfiltered log slice accepted since the last durable persist; what
  /// PersistSealedLocked writes as the next segment file. Maintained only
  /// while checkpointing is live.
  std::vector<Answer> unsealed_log_;
  /// Retracted log ids already physically removed by a seal (sorted).
  std::vector<uint64_t> applied_dead_;
  /// Retracted log ids tombstoned but still occupying store numbering
  /// (applied at the next seal).
  std::vector<uint64_t> pending_dead_;
  /// Per-cell live answers (log id + worker), newest last; how a
  /// (worker, cell) retraction resolves to a log id.
  struct CellLogEntry {
    uint64_t log_id;
    WorkerId worker;
  };
  std::vector<std::vector<CellLogEntry>> cell_live_;
  uint64_t retractions_total_ = 0;
  /// Incremental T-Crowd state (valid when fitted_ && tcrowd_path_).
  TCrowdState state_;
  /// Batch estimates for the baseline path (valid when fitted_ &&
  /// !tcrowd_path_).
  InferenceResult baseline_result_;
  bool tcrowd_path_ = true;
  bool fitted_ = false;
  bool refresh_in_flight_ = false;
  /// A refresh was requested while one was running; the in-flight refresh
  /// runs exactly one more pass before clearing refresh_in_flight_.
  bool refresh_pending_ = false;
  bool shutdown_ = false;
  int answers_since_refresh_ = 0;
  int refresh_count_ = 0;
  /// Store size the running refresh snapshotted; on install the tail
  /// [snapshot_size_, size) is replayed incrementally.
  size_t snapshot_size_ = 0;
};

}  // namespace tcrowd::service

#endif  // TCROWD_SERVICE_INCREMENTAL_ENGINE_H_
