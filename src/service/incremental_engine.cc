#include "service/incremental_engine.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "assignment/policies.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "inference/answer_segment.h"
#include "inference/catd.h"
#include "inference/crh.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/gtm.h"
#include "inference/majority_voting.h"
#include "inference/median_inference.h"
#include "inference/zencrowd.h"
#include "platform/event_log.h"
#include "platform/trace.h"

namespace tcrowd::service {

namespace {

InferenceArgs Normalize(InferenceArgs args) {
  args.staleness_threshold = std::max(1, args.staleness_threshold);
  args.num_shards = std::max(1, args.num_shards);
  args.min_answers_for_fit = std::max(1, args.min_answers_for_fit);
  args.ingest_batch_size = std::max(1, args.ingest_batch_size);
  return args;
}

/// Column mask the engine's store seals segments under: the model's mask
/// for the T-Crowd variants (so sealed segments agree with the fit), all
/// columns for baseline methods (they index the full log).
std::vector<bool> StoreActiveColumns(const Schema& schema,
                                     const InferenceArgs& args) {
  int cols = schema.num_columns();
  if (!IncrementalInferenceEngine::IsTCrowdMethod(args.method)) {
    return std::vector<bool>(cols, true);
  }
  if (args.method == "tc-onlycate") {
    return TCrowdModel::OnlyCategorical(schema, args.tcrowd_options)
        .ActiveColumns(cols);
  }
  if (args.method == "tc-onlycont") {
    return TCrowdModel::OnlyContinuous(schema, args.tcrowd_options)
        .ActiveColumns(cols);
  }
  return TCrowdModel(args.tcrowd_options).ActiveColumns(cols);
}

}  // namespace

IncrementalInferenceEngine::IncrementalInferenceEngine(const Schema& schema,
                                                       int num_rows,
                                                       InferenceArgs args,
                                                       ThreadPool* pool)
    : schema_(schema),
      num_rows_(num_rows),
      args_(Normalize(std::move(args))),
      pool_(pool),
      executor_(std::make_unique<EmExecutor>(args_.num_shards)),
      store_(schema, num_rows, StoreActiveColumns(schema, args_),
             args_.store),
      tcrowd_path_(IsTCrowdMethod(args_.method)) {
  TCROWD_CHECK(num_rows_ > 0);
  TCROWD_CHECK(schema_.num_columns() > 0);
  cell_live_.resize(static_cast<size_t>(num_rows_) * schema_.num_columns());
  if (args_.checkpoint.enabled()) RestoreFromCheckpoint();
}

void IncrementalInferenceEngine::DisableCheckpointing(const Status& error,
                                                      const char* during) {
  TCROWD_LOG(Warning) << "checkpointing disabled (" << during
                      << "): " << error.ToString()
                      << " — serving continues from memory only";
  if (checkpoint_status_.ok()) checkpoint_status_ = error;
  snapshot_.reset();
  unsealed_log_.clear();
  unsealed_log_.shrink_to_fit();
}

void IncrementalInferenceEngine::RestoreFromCheckpoint() {
  // Constructor-only: no other thread can touch the engine yet, so no lock.
  snapshot_ = std::make_unique<SnapshotStore>(args_.checkpoint);
  SnapshotStore::RecoveredLog log;
  Status st = snapshot_->Open(schema_, num_rows_, &log);
  if (!st.ok()) {
    // Never write into a directory we could not make sense of: restoring
    // nothing AND persisting over the old state would destroy the evidence.
    DisableCheckpointing(st, "restore");
    return;
  }
  if (log.journal_truncated) {
    TCROWD_LOG(Warning) << "snapshot journal had a torn tail; recovered the "
                        << "clean prefix (" << log.answers.size()
                        << " answers)";
  }
  // Semantic validation, mirroring what AcceptAnswerLocked enforced before
  // any of these answers were ever journaled: a checkpoint can be
  // CRC-clean yet hold out-of-range cells or labels (hand-edited file,
  // buggy writer). Such data must refuse with a clean Status, not abort a
  // store CHECK or index a baseline method out of bounds later.
  for (size_t k = 0; k < log.answers.size(); ++k) {
    const Answer& a = log.answers[k];
    bool cell_ok = a.cell.row >= 0 && a.cell.row < num_rows_ &&
                   a.cell.col >= 0 && a.cell.col < schema_.num_columns();
    bool value_ok = false;
    if (cell_ok) {
      const ColumnSpec& col = schema_.column(a.cell.col);
      value_ok =
          a.value.valid() &&
          ((col.type == ColumnType::kCategorical &&
            a.value.is_categorical() && a.value.label() >= 0 &&
            a.value.label() < static_cast<int>(col.labels.size())) ||
           (col.type == ColumnType::kContinuous && a.value.is_continuous()));
    }
    if (!cell_ok || !value_ok) {
      DisableCheckpointing(
          Status::FailedPrecondition(StrFormat(
              "checkpoint %s: answer %zu does not fit the serving schema "
              "(cell %d,%d %s)",
              args_.checkpoint.directory.c_str(), k, a.cell.row, a.cell.col,
              a.value.ToString().c_str())),
          "restore validation");
      return;
    }
  }
  // Replay the durable log into the in-memory store, re-sealing at each
  // durable segment boundary (compaction thresholds may merge them — that
  // only changes in-memory layout, never the chronological log). Journal
  // answers stay in the tail, exactly as they were before the crash.
  // Durably retracted answers are filtered out while replaying: the store
  // holds live answers only, and a force-compacting Finalize() then sees
  // the exact chronological live sequence the uninterrupted run would —
  // which is what keeps restore-then-Finalize bit-identical even when the
  // crash fell between a retraction and the seal that folds it.
  const std::vector<uint64_t>& dead = log.retracted_ids;  // sorted, deduped
  auto is_dead = [&dead](size_t id) {
    return std::binary_search(dead.begin(), dead.end(),
                              static_cast<uint64_t>(id));
  };
  size_t offset = 0;
  std::vector<Answer> live_buf;
  for (size_t sz : log.segment_sizes) {
    live_buf.clear();
    for (size_t k = offset; k < offset + sz; ++k) {
      if (!is_dead(k)) live_buf.push_back(log.answers[k]);
    }
    store_.AppendBatch(live_buf.data(), live_buf.size());
    store_.SealAndSnapshot();
    offset += sz;
  }
  for (size_t k = offset; k < log.answers.size(); ++k) {
    if (!is_dead(k)) store_.Append(log.answers[k]);
  }
  for (size_t k = 0; k < log.answers.size(); ++k) {
    if (is_dead(k)) continue;
    const Answer& a = log.answers[k];
    cell_live_[static_cast<size_t>(a.cell.row) * schema_.num_columns() +
               a.cell.col]
        .push_back(CellLogEntry{k, a.worker});
  }
  // Log-space bookkeeping: log ids keep counting from the durable total;
  // the unfiltered journal tail is what the next persist seals.
  log_size_ = log.answers.size();
  applied_dead_.assign(dead.begin(), dead.end());
  unsealed_log_.assign(log.answers.begin() + log.sealed_answers,
                       log.answers.end());
  restored_ = log.answers.size() - dead.size();
  restored_retractions_ = dead.size();
}

IncrementalInferenceEngine::~IncrementalInferenceEngine() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  refresh_done_.wait(lock, [this] { return !refresh_in_flight_; });
}

bool IncrementalInferenceEngine::IsTCrowdMethod(const std::string& method) {
  return method == "tcrowd" || method == "tc-onlycate" ||
         method == "tc-onlycont";
}

TCrowdModel IncrementalInferenceEngine::MakeTCrowdModel() const {
  if (args_.method == "tc-onlycate") {
    return TCrowdModel::OnlyCategorical(schema_, args_.tcrowd_options);
  }
  if (args_.method == "tc-onlycont") {
    return TCrowdModel::OnlyContinuous(schema_, args_.tcrowd_options);
  }
  return TCrowdModel(args_.tcrowd_options);
}

std::unique_ptr<TruthInference> IncrementalInferenceEngine::MakeBatchMethod()
    const {
  const std::string& m = args_.method;
  if (m == "mv") return std::make_unique<MajorityVoting>();
  if (m == "median") return std::make_unique<MedianInference>();
  if (m == "ds") return std::make_unique<DawidSkene>();
  if (m == "zencrowd") return std::make_unique<ZenCrowd>();
  if (m == "glad") return std::make_unique<Glad>();
  if (m == "gtm") return std::make_unique<Gtm>();
  if (m == "crh") return std::make_unique<Crh>();
  if (m == "catd") return std::make_unique<Catd>();
  return std::make_unique<TCrowdModel>(MakeTCrowdModel());
}

void IncrementalInferenceEngine::DrainIngestLocked(bool apply_updates) {
  std::vector<Answer> batch;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    batch.swap(ingest_);
  }
  if (batch.empty()) return;
  // One pass: append to the store's tail segment and apply the incremental
  // posterior updates, under a single acquisition of the engine mutex.
  // `apply_updates` is false only when the caller is about to replace
  // state_ and replay the tail anyway (the refresh install path) — applying
  // here too would pay every Bayes update twice.
  // Journal records are tagged with LOG ids, not store ids: retractions
  // may have renumbered the store, but the durable log is append-only.
  size_t base = log_size_;
  for (const Answer& answer : batch) {
    store_.Append(answer);
    cell_live_[static_cast<size_t>(answer.cell.row) * schema_.num_columns() +
               answer.cell.col]
        .push_back(CellLogEntry{log_size_, answer.worker});
    ++log_size_;
    ++answers_since_refresh_;
    if (apply_updates && fitted_ && tcrowd_path_) {
      ApplyIncrementalAnswer(answer, &state_);
    }
  }
  absorbed_since_refresh_.store(answers_since_refresh_,
                                std::memory_order_relaxed);
  if (snapshot_ != nullptr) {
    unsealed_log_.insert(unsealed_log_.end(), batch.begin(), batch.end());
    // Durability boundary: once the journal append returns, everything
    // absorbed so far survives a crash. One framed record per drained
    // batch — the same amortization the ingest queue buys the lock.
    Status st = snapshot_->JournalAppend(base, batch.data(), batch.size());
    if (!st.ok()) DisableCheckpointing(st, "journal append");
  }
}

bool IncrementalInferenceEngine::StaleLocked() const {
  return answers_since_refresh_ >= args_.staleness_threshold ||
         (!fitted_ && static_cast<int>(store_.size()) >=
                          args_.min_answers_for_fit);
}

void IncrementalInferenceEngine::ScheduleRefreshLocked(bool* run_inline) {
  if (shutdown_ ||
      static_cast<int>(store_.size()) < args_.min_answers_for_fit) {
    return;
  }
  if (refresh_in_flight_) {
    // Coalesce: the running refresh will loop exactly once more.
    refresh_pending_ = true;
    return;
  }
  refresh_in_flight_ = true;
  answers_since_refresh_ = 0;
  absorbed_since_refresh_.store(0, std::memory_order_relaxed);
  if (pool_ != nullptr && args_.async_refresh) {
    if (!pool_->Submit([this] { RunRefresh(); })) *run_inline = true;
  } else {
    *run_inline = true;
  }
}

void IncrementalInferenceEngine::DrainAndMaybeRefresh() {
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DrainIngestLocked();
    if (StaleLocked() && !refresh_in_flight_) {
      ScheduleRefreshLocked(&run_inline);
    }
  }
  if (run_inline) RunRefresh();
}

void IncrementalInferenceEngine::SubmitAnswer(const Answer& answer) {
  SubmitAnswerBatch(&answer, 1);
}

void IncrementalInferenceEngine::SubmitAnswerBatch(const Answer* answers,
                                                   size_t n) {
  if (n == 0) return;
  size_t queued;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ingest_.reserve(ingest_.size() + n);
    for (size_t k = 0; k < n; ++k) {
      const Answer& a = answers[k];
      TCROWD_CHECK(a.cell.row >= 0 && a.cell.row < num_rows_);
      TCROWD_CHECK(a.cell.col >= 0 && a.cell.col < schema_.num_columns());
      ingest_.push_back(a);
    }
    queued = ingest_.size();
  }
  size_t total =
      total_queued_.fetch_add(n, std::memory_order_relaxed) + n;
  // Lock-free hints only: the authoritative staleness decision is re-made
  // under the engine mutex inside the drain. Draining at least as often as
  // the historical per-answer path would have scheduled keeps the refresh
  // cadence identical.
  bool drain =
      queued >= static_cast<size_t>(args_.ingest_batch_size) ||
      absorbed_since_refresh_.load(std::memory_order_relaxed) +
              static_cast<int>(queued) >=
          args_.staleness_threshold ||
      (!fitted_flag_.load(std::memory_order_relaxed) &&
       total >= static_cast<size_t>(args_.min_answers_for_fit));
  if (drain) DrainAndMaybeRefresh();
}

void IncrementalInferenceEngine::RequestRefresh() {
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DrainIngestLocked();
    ScheduleRefreshLocked(&run_inline);
  }
  if (run_inline) RunRefresh();
}

void IncrementalInferenceEngine::RunRefresh() {
  while (true) {
    AnswerMatrixSnapshot snapshot;
    // Parameters of the installed fit, copied while the snapshot is taken:
    // state_ is rewritten under mu_ while the fit below runs unlocked.
    std::optional<TCrowdWarmStart> warm;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) {
        refresh_in_flight_ = false;
        refresh_done_.notify_all();
        return;
      }
      DrainIngestLocked();
      // Snapshot-free refresh: seal the tail (O(new answers)) and take
      // segment POINTERS — no answer is copied, and every previously
      // sealed segment's runs / SoA views / worker index are reused.
      snapshot = store_.SealAndSnapshot();
      snapshot_size_ = snapshot.num_answers();
      AbsorbAppliedTombstonesLocked();
      // Checkpoint-on-seal: the newly sealed slice goes to disk exactly
      // once, while it is still O(answers since the last refresh).
      PersistSealedLocked();
      if (fitted_ && tcrowd_path_) warm = TCrowdWarmStart::From(state_);
      TCROWD_TRACE(kSeal, kInfo, "refresh seal", snapshot_size_,
                   static_cast<uint64_t>(refresh_count_));
      if (args_.recorder != nullptr) {
        args_.recorder->RecordSeal(snapshot_size_);
      }
    }
    TCROWD_TRACE(kEngine, kInfo, "refresh fit start", snapshot_size_,
                 static_cast<uint64_t>(tcrowd_path_ ? 1 : 0));

    // The expensive part runs without the lock: submits keep flowing while
    // the EM re-converges over the immutable segments, on the persistent
    // executor.
    TCrowdState fresh_state;
    InferenceResult fresh_result;
    bool fit_ok = true;
    try {
      if (tcrowd_path_) {
        // Warm-started from the last refresh (cold for the first fit):
        // a refresh re-converges after a few dozen new answers, not from
        // scratch. Finalize() stays a cold fit.
        fresh_state = MakeTCrowdModel().Fit(schema_, snapshot, executor_.get(),
                                            warm ? &*warm : nullptr);
      } else {
        // Baseline methods consume plain AnswerSets; materializing from the
        // immutable snapshot needs no lock. O(total), but confined to the
        // periodic-batch-refit path by design.
        AnswerSet snap_set = MaterializeAnswerSet(snapshot);
        fresh_result = MakeBatchMethod()->Infer(schema_, snap_set);
      }
    } catch (const std::exception& e) {
      // A failed refresh must never wedge the engine: keep serving the last
      // installed state and let a later submit schedule the next attempt.
      TCROWD_LOG(Warning) << "inference refresh failed: " << e.what();
      fit_ok = false;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      // On a successful install the queued answers are replayed onto the
      // fresh state below — skip the redundant apply to the outgoing one.
      DrainIngestLocked(/*apply_updates=*/!fit_ok);
      if (fit_ok) {
        if (tcrowd_path_) {
          state_ = std::move(fresh_state);
          // Answers that arrived during the fit are replayed incrementally
          // so the installed state reflects every submitted answer.
          for (const Answer& answer :
               store_.CopyAnswersSince(snapshot_size_)) {
            ApplyIncrementalAnswer(answer, &state_);
          }
        } else {
          baseline_result_ = std::move(fresh_result);
        }
        fitted_ = true;
        fitted_flag_.store(true, std::memory_order_relaxed);
        ++refresh_count_;
        TCROWD_TRACE(kEngine, kInfo, "refresh installed",
                     static_cast<uint64_t>(refresh_count_), store_.size());
      }
      if (refresh_pending_ && !shutdown_) {
        // Coalesced requests: run one more pass with a fresh snapshot;
        // refresh_in_flight_ stays set so waiters keep waiting.
        refresh_pending_ = false;
        answers_since_refresh_ = 0;
        absorbed_since_refresh_.store(0, std::memory_order_relaxed);
        continue;
      }
      refresh_in_flight_ = false;
      // Notify under the lock: a waiter (incl. the destructor) may
      // otherwise finish and destroy the condition variable before the
      // notify lands.
      refresh_done_.notify_all();
      return;
    }
  }
}

void IncrementalInferenceEngine::PersistSealedLocked() {
  if (snapshot_ == nullptr) return;
  if (unsealed_log_.empty()) return;
  // The durable log is append-only in log-id space: the newly sealed slice
  // is the unfiltered answers drained since the last persist, NOT a copy
  // from the store — a seal may have scrubbed retracted answers out of the
  // in-memory numbering, but on disk they stay in place and the retraction
  // records (folded into the manifest by this persist) mark them dead.
  Status st =
      snapshot_->PersistSealed(unsealed_log_.data(), unsealed_log_.size());
  if (!st.ok()) {
    DisableCheckpointing(st, "segment persist");
    return;
  }
  unsealed_log_.clear();
}

void IncrementalInferenceEngine::AbsorbAppliedTombstonesLocked() {
  if (!pending_dead_.empty()) {
    std::sort(pending_dead_.begin(), pending_dead_.end());
    size_t mid = applied_dead_.size();
    applied_dead_.insert(applied_dead_.end(), pending_dead_.begin(),
                         pending_dead_.end());
    std::inplace_merge(applied_dead_.begin(), applied_dead_.begin() + mid,
                       applied_dead_.end());
    pending_dead_.clear();
  }
  // The store now holds exactly the live log (tail included): every
  // retraction ever accepted has been renumbered away by the seal.
  TCROWD_CHECK(store_.size() ==
               static_cast<size_t>(log_size_) - applied_dead_.size());
}

size_t IncrementalInferenceEngine::StoreIdForLocked(uint64_t log_id) const {
  size_t applied_before = static_cast<size_t>(
      std::lower_bound(applied_dead_.begin(), applied_dead_.end(), log_id) -
      applied_dead_.begin());
  return static_cast<size_t>(log_id) - applied_before;
}

Status IncrementalInferenceEngine::RetractAnswer(WorkerId worker,
                                                 CellRef cell) {
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cell.row < 0 || cell.row >= num_rows_ || cell.col < 0 ||
        cell.col >= schema_.num_columns()) {
      return Status::InvalidArgument("retract: cell out of range");
    }
    DrainIngestLocked();  // the target answer may still be queued
    auto& entries =
        cell_live_[static_cast<size_t>(cell.row) * schema_.num_columns() +
                   cell.col];
    size_t pos = entries.size();
    for (size_t k = entries.size(); k-- > 0;) {
      if (entries[k].worker == worker) {
        pos = k;
        break;
      }
    }
    if (pos == entries.size()) {
      return Status::NotFound(
          "retract: worker has no live answer on this cell");
    }
    uint64_t log_id = entries[pos].log_id;
    entries.erase(entries.begin() + pos);
    store_.Tombstone(StoreIdForLocked(log_id));
    pending_dead_.push_back(log_id);
    ++retractions_total_;
    // A retraction is as staleness-relevant as an answer: the incremental
    // posterior still carries the dead evidence until the next refresh
    // re-converges over the live log.
    ++answers_since_refresh_;
    absorbed_since_refresh_.store(answers_since_refresh_,
                                  std::memory_order_relaxed);
    if (snapshot_ != nullptr) {
      Status st = snapshot_->JournalRetract(log_id);
      if (!st.ok()) DisableCheckpointing(st, "journal retract");
    }
    if (StaleLocked() && !refresh_in_flight_) {
      ScheduleRefreshLocked(&run_inline);
    }
  }
  if (run_inline) RunRefresh();
  return Status::Ok();
}

size_t IncrementalInferenceEngine::num_retractions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retractions_total_;
}

Status IncrementalInferenceEngine::checkpoint_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_status_;
}

AnswerSet IncrementalInferenceEngine::SnapshotAnswers() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  return store_.MaterializeAnswerSet();
}

size_t IncrementalInferenceEngine::num_answers() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  return store_.size();
}

SegmentedAnswerStore::Stats IncrementalInferenceEngine::store_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  return store_.stats();
}

Value IncrementalInferenceEngine::Estimate(CellRef cell) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  if (!fitted_) return Value();
  if (store_.CellAnswerCount(cell.row, cell.col) == 0) return Value();
  if (tcrowd_path_) {
    if (!state_.column_active[cell.col]) return Value();
    return state_.posterior(cell.row, cell.col).PointEstimate();
  }
  return baseline_result_.estimated_truth.at(cell);
}

double IncrementalInferenceEngine::CellEntropy(CellRef cell) {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  if (!fitted_ || !tcrowd_path_) return 0.0;
  if (!state_.column_active[cell.col]) return 0.0;
  return state_.posterior(cell.row, cell.col).Entropy();
}

Table IncrementalInferenceEngine::EstimatedTruth() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  if (!fitted_) return Table(schema_, num_rows_);
  if (tcrowd_path_) return TCrowdModel::StateToResult(state_).estimated_truth;
  return baseline_result_.estimated_truth;
}

void IncrementalInferenceEngine::WaitForRefresh() {
  std::unique_lock<std::mutex> lock(mu_);
  refresh_done_.wait(lock, [this] { return !refresh_in_flight_; });
}

InferenceResult IncrementalInferenceEngine::Finalize() {
  AnswerMatrixSnapshot snapshot;
  {
    // Drain refreshes, then reserve the executor (refresh_in_flight_ keeps
    // concurrent submits from scheduling a fit onto it mid-finalize).
    std::unique_lock<std::mutex> lock(mu_);
    DrainIngestLocked();
    refresh_done_.wait(lock, [this] { return !refresh_in_flight_; });
    refresh_in_flight_ = true;
    DrainIngestLocked();
    // Full compaction: fresh standardization epoch + worker registry over
    // everything collected — the snapshot is then indistinguishable from
    // the one the batch model builds, which is what makes the finalized
    // truths bit-identical to a batch fit on the same answers.
    snapshot = store_.SealAndSnapshot(/*force_compact=*/true);
    AbsorbAppliedTombstonesLocked();
    PersistSealedLocked();
    TCROWD_TRACE(kSeal, kInfo, "finalize force-compact seal",
                 snapshot.num_answers(), static_cast<uint64_t>(0));
    if (args_.recorder != nullptr) {
      args_.recorder->RecordSeal(snapshot.num_answers());
    }
  }
  TCROWD_TRACE(kEngine, kInfo, "finalize fit start", snapshot.num_answers(),
               static_cast<uint64_t>(refresh_count_));
  InferenceResult result;
  try {
    if (tcrowd_path_) {
      // Same hot loop, same executor, full batch convergence: matches a
      // batch TCrowdModel run with args().tcrowd_options on an EmExecutor
      // of args().num_shards shards bit-for-bit.
      result = TCrowdModel::StateToResult(
          MakeTCrowdModel().Fit(schema_, snapshot, executor_.get()));
    } else {
      result = MakeBatchMethod()->Infer(schema_,
                                        MaterializeAnswerSet(snapshot));
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    refresh_in_flight_ = false;
    refresh_pending_ = false;
    refresh_done_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    refresh_in_flight_ = false;
    // Requests coalesced behind the final fit are moot: the caller has the
    // fully converged result already.
    refresh_pending_ = false;
    refresh_done_.notify_all();
  }
  return result;
}

int IncrementalInferenceEngine::refresh_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refresh_count_;
}

int IncrementalInferenceEngine::answers_since_refresh() const {
  std::lock_guard<std::mutex> lock(mu_);
  return answers_since_refresh_;
}

bool IncrementalInferenceEngine::fitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fitted_;
}

}  // namespace tcrowd::service
