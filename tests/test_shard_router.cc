// The multi-shard serving tier (docs/SHARDING.md): partition map sanity,
// the merged-Finalize bit-identity guarantee (N shards produce the same
// TruthDigest as one engine over the same accepted history, retractions and
// cross-shard session expiry included), the crash/restore drill (one shard
// dies mid-run, recovers from its OWN snapshot directory, and the merged
// digest still matches the uninterrupted run while the surviving shards
// never stalled), and snapshot namespace tags.

#include "service/shard_router.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assignment/policies.h"
#include "inference/segment_codec.h"
#include "platform/event_log.h"
#include "service/crowd_service.h"
#include "simulation/load_generator.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

namespace fs = std::filesystem;

using tcrowd::testing::SimWorld;

std::string FreshDir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "shard_router" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Deterministic service template: the real EM model with refreshes
/// suppressed (Finalize runs the one converged fit), inline ingestion so
/// every accepted answer is in the engine log (and journal, when a
/// checkpoint directory is set) the moment the submit returns.
ServiceConfig BaseConfig(const std::string& checkpoint_dir = "") {
  ServiceConfig config;
  config.target_answers_per_task = 1000;  // the scripts own acceptance
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 1 << 20;
  config.inference.async_refresh = false;
  config.inference.min_answers_for_fit = 8;
  config.inference.ingest_batch_size = 1;
  config.inference.checkpoint.directory = checkpoint_dir;
  config.inference.checkpoint.fsync = false;
  config.router.refresh_every_answers = 1 << 20;
  return config;
}

ShardRouterConfig RouterConfig(int num_shards,
                               const std::string& checkpoint_dir = "") {
  ShardRouterConfig config;
  config.num_shards = num_shards;
  config.base = BaseConfig(checkpoint_dir);
  config.policy_factory = [](int) { return std::make_unique<LoopingPolicy>(); };
  return config;
}

/// Replays a fixed answer script against any backend: one session per
/// worker, leases booked through the replay seam (no routing policy in the
/// loop), so every topology accepts the identical history in the identical
/// order. Reopens a worker's session transparently after the backend
/// expired it — the expiry drill relies on this.
class ScriptDriver {
 public:
  explicit ScriptDriver(ServingBackend* backend) : backend_(backend) {}

  Status Feed(const Answer& answer) {
    ServingBackend::SessionId session = Session(answer.worker);
    Status lease = backend_->ApplyRecordedLeases(session, {answer.cell});
    if (lease.code() == StatusCode::kNotFound) {
      // The backend expired the session out from under us; re-open.
      sessions_.erase(answer.worker);
      session = Session(answer.worker);
      lease = backend_->ApplyRecordedLeases(session, {answer.cell});
    }
    if (!lease.ok()) return lease;
    return backend_->SubmitAnswer(session, answer.cell, answer.value);
  }

  void FeedAllOk(const std::vector<Answer>& answers) {
    for (size_t k = 0; k < answers.size(); ++k) {
      ASSERT_TRUE(Feed(answers[k]).ok()) << "answer " << k;
    }
  }

 private:
  ServingBackend::SessionId Session(WorkerId worker) {
    auto it = sessions_.find(worker);
    if (it != sessions_.end()) return it->second;
    ServingBackend::SessionId id = backend_->StartSession(worker);
    sessions_[worker] = id;
    return id;
  }

  ServingBackend* backend_;
  std::map<WorkerId, ServingBackend::SessionId> sessions_;
};

// ---------------------------------------------------------------------------
// Partition map.

TEST(PartitionRows, ContiguousCompleteAndBalanced) {
  for (int rows : {1, 7, 40, 101}) {
    for (int shards : {1, 2, 3, 4, 7}) {
      if (shards > rows) continue;
      std::vector<ShardRange> ranges = PartitionRows(rows, shards);
      ASSERT_EQ(ranges.size(), static_cast<size_t>(shards));
      EXPECT_EQ(ranges.front().row_begin, 0);
      EXPECT_EQ(ranges.back().row_end, rows);
      int smallest = rows, largest = 0;
      for (size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_GT(ranges[i].num_rows(), 0);
        if (i > 0) {
          EXPECT_EQ(ranges[i].row_begin, ranges[i - 1].row_end);
        }
        smallest = std::min(smallest, ranges[i].num_rows());
        largest = std::max(largest, ranges[i].num_rows());
      }
      // Even split: shard sizes differ by at most one row, extras first.
      EXPECT_LE(largest - smallest, 1);
      for (size_t i = 1; i < ranges.size(); ++i) {
        EXPECT_LE(ranges[i].num_rows(), ranges[i - 1].num_rows());
      }
    }
  }
}

TEST(PartitionRows, ShardForRowAgreesWithTheRanges) {
  SimWorld world(3);
  ShardRouter router(world.world.schema, world.world.truth.num_rows(),
                     RouterConfig(4));
  for (int row = 0; row < router.num_rows(); ++row) {
    int s = router.ShardForRow(row);
    EXPECT_GE(row, router.range(s).row_begin);
    EXPECT_LT(row, router.range(s).row_end);
  }
}

// ---------------------------------------------------------------------------
// Leases route through the real policies and come back in GLOBAL rows.

TEST(ShardRouter, LeasedCellsUseGlobalRowsAndAcceptAnswers) {
  SimWorld world(5);
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  ShardRouter router(schema, rows, RouterConfig(4));

  ShardRouter::SessionId session = router.StartSession(7);
  std::vector<CellRef> leased = router.RequestTasks(session, 8);
  ASSERT_EQ(leased.size(), 8u);
  for (CellRef cell : leased) {
    EXPECT_GE(cell.row, 0);
    EXPECT_LT(cell.row, rows);
    Value value = schema.column(cell.col).type == ColumnType::kCategorical
                      ? Value::Categorical(0)
                      : Value::Continuous(1.0);
    EXPECT_TRUE(router.SubmitAnswer(session, cell, value).ok())
        << "row " << cell.row << " col " << cell.col;
  }
  EXPECT_EQ(router.Stats().answers_accepted, 8);
  EXPECT_EQ(router.num_answers(), 8u);
}

// ---------------------------------------------------------------------------
// The tentpole guarantee: merged Finalize over N shards is bit-identical to
// a single-shard run over the same accepted history — including retractions
// whose answers live on different shards, and sessions that expire while
// holding leases on several shards at once.

TEST(ShardRouter, MergedFinalizeIsBitIdenticalAcrossShardCounts) {
  for (uint64_t seed : {7u, 19u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimWorld world(seed, /*answers_per_task=*/3);
    const std::vector<Answer>& all = world.answers.answers();
    const Schema& schema = world.world.schema;
    int rows = world.world.truth.num_rows();

    // The script: feed the first half, force-expire every session (their
    // leases span several shards), feed the rest under fresh sessions, then
    // retract a handful of answers spread across the table.
    int64_t now = 0;
    size_t half = all.size() / 2;
    std::vector<Answer> retractions = {all[3], all[half + 5],
                                       all[all.size() - 7]};
    auto run = [&](ServingBackend* backend) -> uint64_t {
      ScriptDriver driver(backend);
      std::vector<Answer> first(all.begin(), all.begin() + half);
      std::vector<Answer> rest(all.begin() + half, all.end());
      driver.FeedAllOk(first);
      now += 900 * int64_t{1000000000};
      backend->ExpireStaleSessions();
      driver.FeedAllOk(rest);
      for (const Answer& gone : retractions) {
        EXPECT_TRUE(backend->RetractAnswer(gone.worker, gone.cell).ok());
      }
      return TruthDigest(backend->Finalize().estimated_truth);
    };

    ServiceConfig single_config = BaseConfig();
    single_config.session_lease_timeout_seconds = 300.0;
    single_config.clock_nanos = [&now] { return now; };
    CrowdService single(schema, rows, std::make_unique<LoopingPolicy>(),
                        single_config);
    uint64_t want = run(&single);
    ServiceStats single_stats = single.Stats();
    EXPECT_GT(single_stats.sessions_expired, 0);
    EXPECT_EQ(single_stats.answers_retracted,
              static_cast<int64_t>(retractions.size()));

    for (int shards : {1, 2, 4}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      now = 0;
      ShardRouterConfig config = RouterConfig(shards);
      config.base.session_lease_timeout_seconds = 300.0;
      config.base.clock_nanos = [&now] { return now; };
      ShardRouter router(schema, rows, std::move(config));
      EXPECT_EQ(run(&router), want);
      ServiceStats stats = router.Stats();
      EXPECT_EQ(stats.answers_accepted, single_stats.answers_accepted);
      EXPECT_EQ(stats.answers_retracted, single_stats.answers_retracted);
      EXPECT_EQ(stats.sessions_expired, single_stats.sessions_expired);
    }
  }
}

TEST(ShardRouter, ExpiryReleasesLeasesOnEveryShard) {
  SimWorld world(11);
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  int64_t now = 0;
  ShardRouterConfig config = RouterConfig(4);
  config.base.session_lease_timeout_seconds = 1.0;
  config.base.clock_nanos = [&now] { return now; };
  ShardRouter router(schema, rows, std::move(config));

  // One session holding leases on the first and last shard; one session
  // that stays active.
  ShardRouter::SessionId idle = router.StartSession(1);
  ShardRouter::SessionId active = router.StartSession(2);
  std::vector<CellRef> span = {CellRef{0, 0}, CellRef{rows - 1, 0}};
  ASSERT_TRUE(router.ApplyRecordedLeases(idle, span).ok());

  now += 2 * int64_t{1000000000};
  ASSERT_TRUE(router.ApplyRecordedLeases(active, {CellRef{1, 1}}).ok());
  EXPECT_EQ(router.ExpireStaleSessions(), 1);
  EXPECT_EQ(router.Stats().sessions_expired, 1);
  EXPECT_EQ(router.Stats().sessions_active, 1);
  EXPECT_EQ(router.SubmitAnswer(idle, span[0], Value::Categorical(0)).code(),
            StatusCode::kNotFound);

  // The expired session's leases went back to the open pool on BOTH end
  // shards: a fresh session can book and answer the same cells.
  ShardRouter::SessionId fresh = router.StartSession(3);
  ASSERT_TRUE(router.ApplyRecordedLeases(fresh, span).ok());
  for (CellRef cell : span) {
    Value value = schema.column(cell.col).type == ColumnType::kCategorical
                      ? Value::Categorical(0)
                      : Value::Continuous(1.0);
    EXPECT_TRUE(router.SubmitAnswer(fresh, cell, value).ok());
  }
}

// ---------------------------------------------------------------------------
// The crash drill: one shard dies mid-run and is rebuilt from its own
// snapshot directory while the other shards keep serving; the merged digest
// still matches the run that never crashed.

TEST(ShardRouter, CrashedShardRestoresFromItsOwnSnapshotDir) {
  const int kVictim = 1;
  SimWorld world(21, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  ShardRouter reference(schema, rows, RouterConfig(4));
  std::string dir = FreshDir("crash_drill");
  ShardRouter crashed(schema, rows, RouterConfig(4, dir));
  ASSERT_TRUE(crashed.checkpoint_status().ok());

  // Script phases: A hits every shard; B holds only answers the victim does
  // NOT own (the downtime window); C is everything else. Both runs feed the
  // phases in the same order so the accepted histories are identical.
  auto owner = [&](const Answer& a) { return reference.ShardForRow(a.cell.row); };
  size_t third = all.size() / 3;
  std::vector<Answer> a_phase(all.begin(), all.begin() + third);
  std::vector<Answer> b_phase, c_phase;
  for (size_t k = third; k < 2 * third; ++k) {
    (owner(all[k]) == kVictim ? c_phase : b_phase).push_back(all[k]);
  }
  c_phase.insert(c_phase.end(), all.begin() + 2 * third, all.end());
  const Answer retracted = a_phase[2];

  int64_t victim_live_after_a = 0;
  for (const Answer& a : a_phase) {
    if (owner(a) == kVictim) ++victim_live_after_a;
  }
  ASSERT_GT(victim_live_after_a, 0) << "drill needs answers on the victim";

  // Reference run: no crash, same phases, same retraction point.
  ScriptDriver ref_driver(&reference);
  ref_driver.FeedAllOk(a_phase);
  ref_driver.FeedAllOk(b_phase);
  ASSERT_TRUE(reference.RetractAnswer(retracted.worker, retracted.cell).ok());
  ref_driver.FeedAllOk(c_phase);
  uint64_t want = TruthDigest(reference.Finalize().estimated_truth);

  // Crashed run: the victim dies after phase A...
  ScriptDriver driver(&crashed);
  driver.FeedAllOk(a_phase);
  crashed.CrashShard(kVictim);
  EXPECT_EQ(crashed.shard(kVictim), nullptr);

  // ...requests routed to it fail cleanly (and are NOT part of the accepted
  // history — the reference run never sees them)...
  CellRef down_cell{crashed.range(kVictim).row_begin, 0};
  ShardRouter::SessionId probe = crashed.StartSession(999);
  EXPECT_EQ(crashed.ApplyRecordedLeases(probe, {down_cell}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(crashed.SubmitAnswer(probe, down_cell, Value::Categorical(0))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(crashed.RetractAnswer(0, down_cell).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(crashed.EndSession(probe).ok());

  // ...while every submit to the surviving shards is accepted on the first
  // try — FeedAllOk asserts per answer, so a single stall fails the drill.
  driver.FeedAllOk(b_phase);
  ASSERT_TRUE(crashed.RetractAnswer(retracted.worker, retracted.cell).ok());

  // Restore from the victim's own snapshot directory and finish the script.
  ASSERT_TRUE(fs::exists(fs::path(dir) / "shard-001"));
  Status restore = crashed.RestoreShard(kVictim);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  ASSERT_NE(crashed.shard(kVictim), nullptr);
  EXPECT_EQ(crashed.RestoreShard(kVictim).code(),
            StatusCode::kFailedPrecondition);  // already up
  EXPECT_EQ(crashed.shard(kVictim)->restored_answers(), victim_live_after_a);
  driver.FeedAllOk(c_phase);

  EXPECT_EQ(TruthDigest(crashed.Finalize().estimated_truth), want);
  EXPECT_EQ(crashed.Stats().answers_accepted,
            reference.Stats().answers_accepted);
}

// ---------------------------------------------------------------------------
// Snapshot namespace tags: a shard directory written under one partition
// layout is refused by any other (docs/SHARDING.md).

TEST(ShardRouter, NamespaceTagRefusesAForeignPartitionLayout) {
  // The mix is deterministic and tag-sensitive (SnapshotStore skips it for
  // tag 0, the "no namespace" reservation, so legacy dirs keep their
  // historical fingerprints).
  EXPECT_EQ(NamespacedFingerprint(0x1234u, 1),
            NamespacedFingerprint(0x1234u, 1));
  EXPECT_NE(NamespacedFingerprint(0x1234u, 1), 0x1234u);
  EXPECT_NE(NamespacedFingerprint(0x1234u, 1),
            NamespacedFingerprint(0x1234u, 2));
  EXPECT_NE(NamespacedFingerprint(0x1234u, 1),
            NamespacedFingerprint(0x4321u, 1));

  SimWorld world(33, /*answers_per_task=*/2);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  std::string dir = FreshDir("namespace_tags");
  int64_t accepted = 0;
  {
    ShardRouter writer(schema, rows, RouterConfig(2, dir));
    ScriptDriver driver(&writer);
    std::vector<Answer> some(all.begin(), all.begin() + all.size() / 2);
    driver.FeedAllOk(some);
    accepted = writer.Stats().answers_accepted;
    ASSERT_GT(accepted, 0);
  }

  // Same layout: both shard dirs restore cleanly.
  {
    ShardRouter reopened(schema, rows, RouterConfig(2, dir));
    EXPECT_TRUE(reopened.checkpoint_status().ok());
    EXPECT_EQ(reopened.Stats().answers_restored, accepted);
  }

  // Different shard count over the same root: shard 0's directory carries a
  // 2-shard tag, so the 4-shard layout must refuse it rather than silently
  // restore a differently partitioned log.
  {
    ShardRouter foreign(schema, rows, RouterConfig(4, dir));
    EXPECT_FALSE(foreign.checkpoint_status().ok());
  }
}

TEST(ShardRouter, ExportsServiceCountersAtItsOwnBoundary) {
  SimWorld world(23, /*answers_per_task=*/0);
  ShardRouterConfig config = RouterConfig(2);
  config.base.target_answers_per_task = 2;
  ShardRouter router(world.world.schema, world.world.truth.num_rows(),
                     std::move(config));
  sim::LoadGeneratorOptions load;
  load.tasks_per_request = 3;
  load.batch_size = 2;
  load.abandon_prob = 0.1;
  load.seed = 9;
  sim::LoadGenerator generator(&world.crowd, &router, load);
  sim::LoadReport report = generator.Run();
  ASSERT_TRUE(router.Drained());
  ASSERT_GT(report.batches, 0);
  ASSERT_GT(report.abandoned_sessions, 0);

  auto counter = [&](const char* name) {
    return router.metrics().counter(name).value();
  };
  ServiceStats stats = router.Stats();
  EXPECT_EQ(counter("service.sessions_started"), report.arrivals);
  EXPECT_EQ(counter("service.sessions_started"), stats.sessions_started);
  EXPECT_EQ(counter("service.sessions_ended"), report.arrivals);
  EXPECT_EQ(counter("service.sessions_expired"), stats.sessions_expired);
  EXPECT_EQ(counter("service.tasks_assigned"), report.assignments);
  EXPECT_EQ(counter("service.tasks_assigned"), stats.assignments);
  EXPECT_EQ(counter("service.answers_accepted"), report.answers);
  EXPECT_EQ(counter("service.answers_accepted"), stats.answers_accepted);
  EXPECT_EQ(counter("service.answers_rejected"), report.rejected);

  // A retraction and a submit under an unknown session count too.
  const Answer first = router.GatherAnswerLog().front();
  ASSERT_TRUE(router.RetractAnswer(first.worker, first.cell).ok());
  EXPECT_FALSE(router.SubmitAnswer(987654, first.cell, first.value).ok());
  EXPECT_EQ(counter("service.answers_rejected"), report.rejected + 1);
  EXPECT_EQ(counter("service.answers_retracted"), 1);
  EXPECT_EQ(counter("service.answers_retracted"),
            router.Stats().answers_retracted);
  EXPECT_EQ(counter("service.answer_batches"), report.batches);
}

TEST(ShardRouter, StatsCountTheRoutersOwnRejections) {
  SimWorld world(24, /*answers_per_task=*/0);
  const Schema& schema = world.world.schema;
  const int rows = world.world.truth.num_rows();
  ShardRouter router(schema, rows, RouterConfig(2));
  auto rejected_counter = [&] {
    return router.metrics().counter("service.answers_rejected").value();
  };
  const CellRef first_row{0, 0};
  const Value value = schema.column(0).type == ColumnType::kCategorical
                          ? Value::Categorical(0)
                          : Value::Continuous(1.0);

  // Rejected by the router itself: an unknown session, a row outside the
  // table, a row whose shard is down.
  EXPECT_FALSE(router.SubmitAnswer(12345, first_row, value).ok());
  EXPECT_EQ(rejected_counter(), 1);
  EXPECT_EQ(router.Stats().answers_rejected, 1);
  ShardRouter::SessionId session = router.StartSession(3);
  EXPECT_FALSE(router.SubmitAnswer(session, CellRef{rows, 0}, value).ok());
  router.CrashShard(1);
  EXPECT_FALSE(
      router.SubmitAnswer(session, CellRef{rows - 1, 0}, value).ok());
  EXPECT_EQ(rejected_counter(), 3);
  EXPECT_EQ(router.Stats().answers_rejected, 3);

  // Rejected by a shard (no lease on the cell): counted once, not twice.
  EXPECT_FALSE(router.SubmitAnswer(session, first_row, value).ok());
  EXPECT_EQ(rejected_counter(), 4);
  EXPECT_EQ(router.Stats().answers_rejected, 4);
}

}  // namespace
}  // namespace tcrowd::service
