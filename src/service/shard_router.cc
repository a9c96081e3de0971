#include "service/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace tcrowd::service {

namespace {

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Finalize-only engine configuration: same model knobs as the shards, no
/// persistence/recording, and refreshes suppressed so the only fit is the
/// exact batch fit Finalize() runs.
InferenceArgs MergeEngineArgs(InferenceArgs args) {
  args.checkpoint = CheckpointArgs{};
  args.recorder = nullptr;
  args.async_refresh = false;
  args.staleness_threshold = 1 << 30;
  return args;
}

}  // namespace

std::vector<ShardRange> PartitionRows(int num_rows, int num_shards) {
  TCROWD_CHECK(num_rows > 0);
  TCROWD_CHECK(num_shards > 0);
  std::vector<ShardRange> ranges(static_cast<size_t>(num_shards));
  int base = num_rows / num_shards;
  int extra = num_rows % num_shards;
  int row = 0;
  for (int i = 0; i < num_shards; ++i) {
    int rows = base + (i < extra ? 1 : 0);
    ranges[i] = ShardRange{row, row + rows};
    row += rows;
  }
  TCROWD_CHECK(row == num_rows);
  return ranges;
}

ShardRouter::ShardRouter(const Schema& schema, int num_rows,
                         ShardRouterConfig config)
    : schema_(schema),
      num_rows_(num_rows),
      config_(std::move(config)) {
  TCROWD_CHECK(config_.num_shards >= 1);
  TCROWD_CHECK(config_.num_shards <= num_rows_);
  TCROWD_CHECK(static_cast<bool>(config_.policy_factory) ||
               static_cast<bool>(config_.backend_factory));
  ranges_ = PartitionRows(num_rows_, config_.num_shards);
  ledgers_.resize(static_cast<size_t>(config_.num_shards));
  shards_.resize(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_[i] = MakeBackend(i);
  }
}

ShardRouter::~ShardRouter() = default;

std::unique_ptr<ShardBackend> ShardRouter::MakeBackend(int i) const {
  if (config_.backend_factory) return config_.backend_factory(i);
  return std::make_unique<LocalShardBackend>(
      schema_, ranges_[i].num_rows(), config_.policy_factory(i),
      DeriveShardServiceConfig(config_.base, schema_, num_rows_, ranges_[i],
                               config_.num_shards, i));
}

ShardBackend* ShardRouter::LiveShardLocked(int s) {
  if (UpLocked(s)) return shards_[s].get();
  if (!config_.auto_restore) return nullptr;
  // Router-daemon mode: one rebuild attempt per touch — a restarted shard
  // daemon rejoins here; a still-dead one keeps the shard failing fast.
  return RestoreShardLocked(s).ok() ? shards_[s].get() : nullptr;
}

int64_t ShardRouter::NowNanos() const {
  return config_.base.clock_nanos ? config_.base.clock_nanos()
                                  : SteadyNowNanos();
}

int ShardRouter::ShardForRow(int row) const {
  TCROWD_CHECK(row >= 0 && row < num_rows_);
  // Ranges are contiguous and sorted; binary-search the owning one.
  int lo = 0, hi = config_.num_shards - 1;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (row >= ranges_[mid].row_end) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

ShardRouter::SessionId ShardRouter::StartSession(WorkerId worker) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = NowNanos();
  ExpireStaleSessionsLocked(now, /*force=*/false);
  SessionId id = next_session_++;
  GlobalSession session;
  session.worker = worker;
  session.sub.assign(static_cast<size_t>(config_.num_shards), -1);
  session.last_active_nanos = now;
  for (int s = 0; s < config_.num_shards; ++s) {
    if (ShardBackend* b = LiveShardLocked(s)) {
      session.sub[s] = b->StartSession(worker);
    }
  }
  sessions_.emplace(id, std::move(session));
  ++sessions_started_total_;
  return id;
}

std::vector<CellRef> ShardRouter::RequestTasks(SessionId session, int k) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = NowNanos();
  ExpireStaleSessionsLocked(now, /*force=*/false);
  auto it = sessions_.find(session);
  if (it == sessions_.end() || k <= 0) return {};
  it->second.last_active_nanos = now;
  std::vector<CellRef> leased;
  // Rotate the starting shard per call so lease pressure spreads instead of
  // always draining shard 0 first.
  size_t start = spread_cursor_++ % static_cast<size_t>(config_.num_shards);
  for (int j = 0; j < config_.num_shards; ++j) {
    int s = static_cast<int>((start + static_cast<size_t>(j)) %
                             static_cast<size_t>(config_.num_shards));
    ShardBackend* b = LiveShardLocked(s);
    if (b == nullptr || it->second.sub[s] < 0) continue;
    int need = k - static_cast<int>(leased.size());
    if (need <= 0) break;
    std::vector<CellRef> local = b->RequestTasks(it->second.sub[s], need);
    for (CellRef cell : local) {
      leased.push_back(CellRef{cell.row + ranges_[s].row_begin, cell.col});
    }
  }
  return leased;
}

Status ShardRouter::SubmitAnswer(SessionId session, CellRef cell,
                                 const Value& value) {
  std::vector<Status> statuses = SubmitAnswerBatch(session, {{cell, value}});
  return statuses.empty() ? Status::NotFound("unknown session")
                          : statuses.front();
}

std::vector<Status> ShardRouter::SubmitAnswerBatch(
    SessionId session, const std::vector<std::pair<CellRef, Value>>& items) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = NowNanos();
  ExpireStaleSessionsLocked(now, /*force=*/false);
  std::vector<Status> statuses(items.size(), Status::Ok());
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    for (auto& st : statuses) st = Status::NotFound("unknown session");
    return statuses;
  }
  GlobalSession& gs = it->second;
  gs.last_active_nanos = now;

  // Group by owning shard, preserving each shard's relative item order (the
  // order its engine will log them in).
  std::vector<std::vector<std::pair<CellRef, Value>>> grouped(
      static_cast<size_t>(config_.num_shards));
  std::vector<std::vector<size_t>> origin(
      static_cast<size_t>(config_.num_shards));
  std::vector<int> item_shard(items.size(), -1);
  for (size_t i = 0; i < items.size(); ++i) {
    int row = items[i].first.row;
    if (row < 0 || row >= num_rows_) {
      statuses[i] = Status::OutOfRange("row outside the table");
      continue;
    }
    int s = ShardForRow(row);
    if (LiveShardLocked(s) == nullptr || gs.sub[s] < 0) {
      statuses[i] = Status::FailedPrecondition("owning shard is down");
      continue;
    }
    grouped[s].push_back(
        {CellRef{row - ranges_[s].row_begin, items[i].first.col},
         items[i].second});
    origin[s].push_back(i);
    item_shard[i] = s;
  }
  for (int s = 0; s < config_.num_shards; ++s) {
    if (grouped[s].empty()) continue;
    std::vector<Status> sub =
        shards_[s]->SubmitAnswerBatch(gs.sub[s], grouped[s]);
    for (size_t j = 0; j < sub.size(); ++j) {
      statuses[origin[s][j]] = std::move(sub[j]);
    }
  }
  // Stamp global arrival seqs over the accepted items in ORIGINAL item
  // order — this ledger order is what merged Finalize sorts by, so the
  // merged log replays the exact submission history.
  for (size_t i = 0; i < items.size(); ++i) {
    if (!statuses[i].ok()) continue;
    int s = item_shard[i];
    SeqEntry entry;
    entry.seq = next_seq_++;
    entry.answer = Answer{gs.worker, items[i].first, items[i].second};
    ledgers_[s].push_back(std::move(entry));
  }
  return statuses;
}

Status ShardRouter::RetractAnswer(WorkerId worker, CellRef cell) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cell.row < 0 || cell.row >= num_rows_) {
    return Status::OutOfRange("row outside the table");
  }
  int s = ShardForRow(cell.row);
  if (LiveShardLocked(s) == nullptr) {
    return Status::FailedPrecondition("owning shard is down");
  }
  Status st = shards_[s]->RetractAnswer(
      worker, CellRef{cell.row - ranges_[s].row_begin, cell.col});
  if (!st.ok()) return st;
  // Mirror the engine's semantics in the ledger: the NEWEST live matching
  // entry is the one the shard tombstoned.
  auto& ledger = ledgers_[s];
  for (auto rit = ledger.rbegin(); rit != ledger.rend(); ++rit) {
    if (rit->live && rit->answer.worker == worker &&
        rit->answer.cell == cell) {
      rit->live = false;
      return st;
    }
  }
  // The shard accepted the retraction, so the ledger must have held the
  // answer — reaching here means the two diverged.
  return Status::Internal("retraction accepted by shard but not in ledger");
}

Status ShardRouter::ApplyRecordedLeases(SessionId session,
                                        const std::vector<CellRef>& cells) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = NowNanos();
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("unknown session");
  GlobalSession& gs = it->second;
  gs.last_active_nanos = now;
  std::vector<std::vector<CellRef>> grouped(
      static_cast<size_t>(config_.num_shards));
  for (CellRef cell : cells) {
    if (cell.row < 0 || cell.row >= num_rows_) {
      return Status::OutOfRange("row outside the table");
    }
    int s = ShardForRow(cell.row);
    if (LiveShardLocked(s) == nullptr || gs.sub[s] < 0) {
      return Status::FailedPrecondition("owning shard is down");
    }
    grouped[s].push_back(CellRef{cell.row - ranges_[s].row_begin, cell.col});
  }
  Status first = Status::Ok();
  for (int s = 0; s < config_.num_shards; ++s) {
    if (grouped[s].empty()) continue;
    Status st = shards_[s]->ApplyRecordedLeases(gs.sub[s], grouped[s]);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status ShardRouter::EndSession(SessionId session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return Status::NotFound("unknown session");
  EndSubSessionsLocked(&it->second);
  sessions_.erase(it);
  return Status::Ok();
}

void ShardRouter::EndSubSessionsLocked(GlobalSession* session) {
  for (int s = 0; s < config_.num_shards; ++s) {
    if (UpLocked(s) && session->sub[s] >= 0) {
      shards_[s]->EndSession(session->sub[s]);
    }
  }
}

int ShardRouter::ExpireStaleSessions() {
  std::lock_guard<std::mutex> lock(mu_);
  return ExpireStaleSessionsLocked(NowNanos(), /*force=*/true);
}

int ShardRouter::ExpireStaleSessionsLocked(int64_t now, bool force) {
  double timeout = config_.base.session_lease_timeout_seconds;
  if (timeout <= 0.0) return 0;
  int64_t deadline = static_cast<int64_t>(timeout * 1e9);
  if (!force && now - last_sweep_nanos_ < deadline) return 0;
  last_sweep_nanos_ = now;
  int expired = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second.last_active_nanos > deadline) {
      EndSubSessionsLocked(&it->second);
      it = sessions_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  sessions_expired_total_ += expired;
  return expired;
}

bool ShardRouter::Drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    if (!shard || !shard->Drained()) return false;
  }
  return true;
}

ServiceStats ShardRouter::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats total;
  for (const auto& shard : shards_) {
    if (!shard || shard->down()) continue;
    ServiceStats s = shard->Stats();
    total.tasks_open += s.tasks_open;
    total.tasks_assigned += s.tasks_assigned;
    total.tasks_answered += s.tasks_answered;
    total.tasks_finalized += s.tasks_finalized;
    total.answers_accepted += s.answers_accepted;
    total.answers_rejected += s.answers_rejected;
    total.answers_retracted += s.answers_retracted;
    total.answers_restored += s.answers_restored;
    total.assignments += s.assignments;
    total.budget_spent += s.budget_spent;
    total.budget_remaining += s.budget_remaining;
    total.engine_refreshes += s.engine_refreshes;
  }
  // Session accounting is router-global (the sub-sessions a shard counts
  // are an implementation detail, N per worker arrival).
  total.sessions_started = sessions_started_total_;
  total.sessions_active = static_cast<int64_t>(sessions_.size());
  total.sessions_expired = sessions_expired_total_;
  return total;
}

Status ShardRouter::checkpoint_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    if (!shard) continue;
    Status st = shard->checkpoint_status();
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

int64_t ShardRouter::answers_since_refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t laggiest = 0;
  for (const auto& shard : shards_) {
    if (!shard || shard->down()) continue;
    laggiest = std::max(
        laggiest, static_cast<int64_t>(shard->answers_since_refresh()));
  }
  return laggiest;
}

void ShardRouter::RequestRefresh() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    if (shard && !shard->down()) shard->RequestRefresh();
  }
}

uint64_t ShardRouter::num_answers() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard && !shard->down()) total += shard->num_answers();
  }
  return total;
}

std::vector<Answer> ShardRouter::GatherMergedLogLocked() {
  // Gather each SHARD's live answer log (not the router's copy) so a
  // restored shard proves its disk state — via GatherLog, which is a
  // kLogGather round-trip for a remote shard — and pair it positionally
  // with the ledger's live seqs: both are in log order, so the pairing is
  // 1:1.
  std::vector<std::pair<uint64_t, Answer>> merged;
  for (int s = 0; s < config_.num_shards; ++s) {
    std::vector<const SeqEntry*> live;
    for (const auto& entry : ledgers_[s]) {
      if (entry.live) live.push_back(&entry);
    }
    bool from_shard = false;
    if (UpLocked(s)) {
      std::vector<Answer> log;
      if (shards_[s]->GatherLog(&log).ok() && log.size() == live.size()) {
        for (size_t i = 0; i < live.size(); ++i) {
          Answer answer = log[i];
          answer.cell.row += ranges_[s].row_begin;
          merged.push_back({live[i]->seq, answer});
        }
        from_shard = true;
      }
    }
    if (!from_shard) {
      // Shard down (or ledger/shard divergence): the ledger's own copies
      // keep the merged history complete.
      for (const SeqEntry* entry : live) {
        merged.push_back({entry->seq, entry->answer});
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Answer> ordered;
  ordered.reserve(merged.size());
  for (auto& [seq, answer] : merged) ordered.push_back(std::move(answer));
  return ordered;
}

std::vector<Answer> ShardRouter::GatherAnswerLog() {
  std::lock_guard<std::mutex> lock(mu_);
  return GatherMergedLogLocked();
}

InferenceResult ShardRouter::Finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  // One fresh engine over the seq-ordered merged log: the engine Finalize
  // contract (bit-identical to a batch fit over the same log) is what makes
  // this equal to the single-shard run's digest.
  std::vector<Answer> ordered = GatherMergedLogLocked();
  IncrementalInferenceEngine engine(
      schema_, num_rows_, MergeEngineArgs(config_.base.inference), nullptr);
  engine.SubmitAnswerBatch(ordered.data(), ordered.size());
  return engine.Finalize();
}

void ShardRouter::CrashShard(int i) {
  std::lock_guard<std::mutex> lock(mu_);
  TCROWD_CHECK(i >= 0 && i < config_.num_shards);
  shards_[i].reset();
  for (auto& [id, session] : sessions_) session.sub[i] = -1;
}

Status ShardRouter::RestoreShard(int i) {
  std::lock_guard<std::mutex> lock(mu_);
  TCROWD_CHECK(i >= 0 && i < config_.num_shards);
  if (UpLocked(i)) {
    return Status::FailedPrecondition("shard is up; crash it first");
  }
  return RestoreShardLocked(i);
}

Status ShardRouter::RestoreShardLocked(int i) {
  std::unique_ptr<ShardBackend> restored = MakeBackend(i);
  Status st = restored->checkpoint_status();
  if (!st.ok()) return st;
  // Agreement check: the rebuilt shard's live log must match the router's
  // ledger answer-for-answer in count. Exact for a daemon restarted from
  // its snapshot AND for a live daemon the router merely reconnected to,
  // and it catches torn remote batches (booked by the daemon, never
  // stamped by the router).
  std::vector<Answer> log;
  st = restored->GatherLog(&log);
  if (!st.ok()) return st;
  int64_t live = 0;
  for (const auto& entry : ledgers_[i]) {
    if (entry.live) ++live;
  }
  if (static_cast<int64_t>(log.size()) != live) {
    return Status::Internal(
        "restored answer log disagrees with the router ledger");
  }
  shards_[i] = std::move(restored);
  // Re-open sub-sessions for every live router session; the crashed
  // shard's leases are gone by design (sessions are not persisted), so
  // workers re-lease before answering rows it owns.
  for (auto& [id, session] : sessions_) {
    session.sub[i] = shards_[i]->StartSession(session.worker);
  }
  return Status::Ok();
}

}  // namespace tcrowd::service
