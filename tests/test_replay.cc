// The record/replay determinism contract (docs/OBSERVABILITY.md): a run
// recorded through ServiceConfig::recorder replays onto a fresh service
// with a bit-identical Finalize() truth digest — below the EM's sharding
// threshold at any replay shard count — and a torn log (crash mid-record)
// still replays its clean prefix through the crash point.

#include "service/replay.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "assignment/policies.h"
#include "inference/em_executor.h"
#include "platform/event_log.h"
#include "service/crowd_service.h"
#include "simulation/scenario.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

using tcrowd::testing::SimWorld;

sim::TableGeneratorOptions SmallTable() {
  sim::TableGeneratorOptions topt;
  topt.num_rows = 12;
  topt.num_cols = 4;
  topt.categorical_ratio = 0.5;
  return topt;
}

sim::CrowdOptions SmallCrowd() {
  sim::CrowdOptions copt;
  copt.num_workers = 16;
  copt.phi_median = 0.2;
  copt.phi_log_sigma = 0.5;
  copt.unfamiliar_prob = 0.0;
  return copt;
}

ServiceConfig RecordedConfig(EventRecorder* recorder) {
  ServiceConfig config;
  config.target_answers_per_task = 4;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 48;
  config.router.seed = 3;
  config.recorder = recorder;
  return config;
}

ServiceConfig ReplayConfig(int num_shards) {
  ServiceConfig config = RecordedConfig(nullptr);
  config.inference.num_shards = num_shards;
  return config;
}

/// Records one adversarial scenario run (with Finalize) to a fresh event
/// log at `path` and returns the recorded digest for cross-checks.
void RecordScenarioRun(const std::string& scenario, uint64_t world_seed,
                       uint64_t run_seed, const std::string& path) {
  auto recorder = EventRecorder::Open(path);
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  (*recorder)->SetRunInfo(run_seed, "looping", "test-world");

  SimWorld world(world_seed, /*answers_per_task=*/0, SmallTable(),
                 SmallCrowd());
  {
    CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                     std::make_unique<LoopingPolicy>(),
                     RecordedConfig(recorder->get()));
    sim::ScenarioSpec spec;
    ASSERT_TRUE(sim::FindScenario(scenario, &spec));
    sim::ScenarioOptions opt;
    opt.checkpoints = 2;
    opt.tasks_per_request = 4;
    opt.seed = run_seed;
    sim::ScenarioRunner runner(spec, &world.crowd, &svc, opt);
    runner.Run();
    svc.Finalize();  // records the kFinalize digest
  }
  ASSERT_TRUE((*recorder)->Close().ok());
}

/// Replays `path` onto a fresh service over the same world and returns the
/// report. The world seed must match the recorded run's.
ReplayReport ReplayOnto(const std::string& path, uint64_t world_seed,
                        int num_shards) {
  SimWorld world(world_seed, /*answers_per_task=*/0, SmallTable(),
                 SmallCrowd());
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<LoopingPolicy>(),
                   ReplayConfig(num_shards));
  ReplayReport report;
  Status status = ReplayEventLogFile(path, &svc, &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return report;
}

TEST(Replay, SpamWaveReplaysBitIdentically) {
  const std::string path = ::testing::TempDir() + "/replay_spam.events";
  RecordScenarioRun("spam-wave", 54, 29, path);

  ReplayReport report = ReplayOnto(path, 54, /*num_shards=*/1);
  EXPECT_FALSE(report.log_truncated);
  EXPECT_EQ(report.status_divergences, 0) << report.first_divergence;
  ASSERT_TRUE(report.reached_finalize);
  EXPECT_TRUE(report.digest_match);
  EXPECT_EQ(report.recorded_digest, report.replayed_digest);
  EXPECT_EQ(report.recorded_answer_count, report.replayed_answer_count);
  EXPECT_GT(report.answers_accepted, 0);
  EXPECT_TRUE(report.ok());
  std::remove(path.c_str());
}

TEST(Replay, RetractionStormReplaysBitIdentically) {
  const std::string path = ::testing::TempDir() + "/replay_storm.events";
  RecordScenarioRun("retraction-storm", 55, 37, path);

  ReplayReport report = ReplayOnto(path, 55, /*num_shards=*/1);
  EXPECT_EQ(report.status_divergences, 0) << report.first_divergence;
  ASSERT_TRUE(report.reached_finalize);
  EXPECT_TRUE(report.digest_match);
  EXPECT_GT(report.retractions_replayed, 0);
  EXPECT_TRUE(report.ok());
  std::remove(path.c_str());
}

TEST(Replay, DigestIsIndependentOfReplayThreadCount) {
  // Leases come from the log, not the router, and a log below the EM's
  // sharding threshold fits serially at any shard count, so the replay
  // engine's EM thread count must not perturb the outcome.
  const std::string path = ::testing::TempDir() + "/replay_threads.events";
  RecordScenarioRun("spam-wave", 54, 31, path);

  uint64_t digests[3];
  int idx = 0;
  for (int shards : {1, 2, 4}) {
    ReplayReport report = ReplayOnto(path, 54, shards);
    EXPECT_TRUE(report.ok()) << "shards=" << shards << " "
                             << report.first_divergence;
    ASSERT_TRUE(report.reached_finalize) << "shards=" << shards;
    EXPECT_LT(report.replayed_answer_count, EmExecutor::kMinItemsForSharding);
    EXPECT_TRUE(report.digest_match) << "shards=" << shards;
    digests[idx++] = report.replayed_digest;
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
  std::remove(path.c_str());
}

TEST(Replay, TornLogReplaysItsCleanPrefixThroughTheCrashPoint) {
  const std::string path = ::testing::TempDir() + "/replay_torn.events";
  RecordScenarioRun("spam-wave", 54, 33, path);

  // Read the full log, then chop the byte stream mid-frame — the moral
  // equivalent of a crash while fwrite had only partially landed.
  EventLogReplay full;
  ASSERT_TRUE(ReadEventLogFile(path, &full).ok());
  ASSERT_FALSE(full.truncated);
  ASSERT_GT(full.events.size(), 10u);
  std::string bytes;
  for (const RecordedEvent& e : full.events) EncodeEvent(e, &bytes);
  EventLogReplay torn;
  ASSERT_TRUE(
      DecodeEventLog(bytes.data(), bytes.size() * 2 / 3, &torn).ok());
  EXPECT_TRUE(torn.truncated);
  ASSERT_GT(torn.events.size(), 1u);
  ASSERT_LT(torn.events.size(), full.events.size());

  SimWorld world(54, /*answers_per_task=*/0, SmallTable(), SmallCrowd());
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<LoopingPolicy>(), ReplayConfig(1));
  ReplayReport report;
  Status status = ReplayEvents(torn, &svc, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.status_divergences, 0) << report.first_divergence;
  EXPECT_FALSE(report.reached_finalize);  // the crash ate the finalize
  EXPECT_TRUE(report.ok());               // ...but the prefix is faithful
  EXPECT_EQ(report.events_applied, torn.events.size());
  std::remove(path.c_str());
}

TEST(Replay, SchemaFingerprintMismatchIsRejected) {
  const std::string path = ::testing::TempDir() + "/replay_mismatch.events";
  RecordScenarioRun("spam-wave", 54, 35, path);

  // A different world seed yields a different schema/truth — replaying the
  // log onto it must refuse up front, not diverge silently.
  SimWorld other(99, /*answers_per_task=*/0, SmallTable(), SmallCrowd());
  CrowdService svc(other.world.schema, other.world.truth.num_rows(),
                   std::make_unique<LoopingPolicy>(), ReplayConfig(1));
  ReplayReport report;
  Status status = ReplayEventLogFile(path, &svc, &report);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(Replay, LogWithoutRunStartHasNoRunStartToFind) {
  EventLogReplay log;
  RecordedEvent seal;
  seal.type = EventType::kSeal;
  seal.sealed_total = 1;
  log.events.push_back(seal);
  EXPECT_EQ(FindRunStart(log), nullptr);
}

}  // namespace
}  // namespace tcrowd::service
