#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assignment/policies.h"
#include "data/byte_codec.h"
#include "inference/segment_codec.h"
#include "inference/tcrowd_model.h"
#include "service/crowd_service.h"
#include "service/incremental_engine.h"
#include "service/snapshot_store.h"
#include "simulation/load_generator.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

namespace fs = std::filesystem;

using tcrowd::testing::ExpectTablesMatch;
using tcrowd::testing::InferOnShards;
using tcrowd::testing::SimWorld;

std::string FreshDir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "checkpoint_recovery" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Deterministic engine args: inline refreshes, every submit drained (and
/// so journaled) immediately — the durable log equals exactly what was
/// submitted at any moment, which is what lets the tests crash anywhere.
InferenceArgs DurableSyncArgs(const std::string& dir, int staleness = 64) {
  InferenceArgs args;
  args.method = "tcrowd";
  args.tcrowd_options = TCrowdOptions::Fast();
  args.staleness_threshold = staleness;
  args.async_refresh = false;
  args.min_answers_for_fit = 8;
  args.ingest_batch_size = 1;
  args.checkpoint.directory = dir;
  args.checkpoint.fsync = false;  // format correctness, not disk latency
  return args;
}

void Replay(const std::vector<Answer>& answers, size_t lo, size_t hi,
            IncrementalInferenceEngine* engine) {
  for (size_t k = lo; k < hi; ++k) engine->SubmitAnswer(answers[k]);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// The durability contract: kill/restart round-trips are bit-identical.

TEST(CheckpointRecovery, RestoreThenFinalizeMatchesUninterruptedRunExactly) {
  SimWorld world(31, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  size_t crash_at = all.size() / 2;

  // Uninterrupted reference run (no persistence at all).
  InferenceArgs plain = DurableSyncArgs("");
  plain.checkpoint.directory.clear();
  IncrementalInferenceEngine uninterrupted(schema, rows, plain, nullptr);
  Replay(all, 0, all.size(), &uninterrupted);
  InferenceResult expected = uninterrupted.Finalize();

  // Crashed run: first half submitted, then the engine dies mid-flight —
  // no Finalize, no graceful flush beyond the per-drain journaling.
  std::string dir = FreshDir("golden");
  {
    IncrementalInferenceEngine crashed(schema, rows, DurableSyncArgs(dir),
                                       nullptr);
    Replay(all, 0, crash_at, &crashed);
  }

  // Restarted run: restore the durable log, drive the remainder, finalize.
  IncrementalInferenceEngine restored(schema, rows, DurableSyncArgs(dir),
                                      nullptr);
  EXPECT_TRUE(restored.checkpoint_status().ok());
  ASSERT_EQ(restored.restored_answers(), crash_at);
  Replay(all, crash_at, all.size(), &restored);
  ASSERT_EQ(restored.num_answers(), all.size());

  InferenceResult finalized = restored.Finalize();
  // Zero tolerance: restore + Finalize must equal the uninterrupted run to
  // the last bit, and both must equal the batch model.
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
  TCrowdModel batch(restored.args().tcrowd_options);
  InferenceResult batch_result = InferOnShards(
      batch, schema, restored.SnapshotAnswers(), restored.args().num_shards);
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    batch_result.estimated_truth, 0.0);
}

TEST(CheckpointRecovery, RestoreOfCompletedRunReproducesFinalTruthsExactly) {
  SimWorld world(32, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  std::string dir = FreshDir("completed");
  InferenceResult expected;
  {
    IncrementalInferenceEngine first(schema, rows, DurableSyncArgs(dir),
                                     nullptr);
    Replay(all, 0, all.size(), &first);
    expected = first.Finalize();
  }
  IncrementalInferenceEngine restored(schema, rows, DurableSyncArgs(dir),
                                      nullptr);
  ASSERT_EQ(restored.restored_answers(), all.size());
  InferenceResult finalized = restored.Finalize();
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(CheckpointRecovery, ShardedRestoreStaysBitIdentical) {
  // 40 x 6 x 9 = 2160 answers engage the sharded M-step: the recovery path
  // must agree with the uninterrupted sharded run through the tree
  // reduction too.
  SimWorld world(33, /*answers_per_task=*/9);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  size_t crash_at = (2 * all.size()) / 3;

  auto sharded = [&](const std::string& d) {
    InferenceArgs args = DurableSyncArgs(d, /*staleness=*/500);
    if (d.empty()) args.checkpoint.directory.clear();
    args.num_shards = 3;
    return args;
  };
  IncrementalInferenceEngine uninterrupted(schema, rows, sharded(""),
                                           nullptr);
  Replay(all, 0, all.size(), &uninterrupted);
  InferenceResult expected = uninterrupted.Finalize();

  std::string dir = FreshDir("sharded");
  {
    IncrementalInferenceEngine crashed(schema, rows, sharded(dir), nullptr);
    Replay(all, 0, crash_at, &crashed);
  }
  IncrementalInferenceEngine restored(schema, rows, sharded(dir), nullptr);
  ASSERT_EQ(restored.restored_answers(), crash_at);
  Replay(all, crash_at, all.size(), &restored);
  InferenceResult finalized = restored.Finalize();
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(CheckpointRecovery, CrashBeforeAnyRefreshRecoversFromJournalAlone) {
  // No refresh ever ran, so no segment was sealed or persisted: the whole
  // durable log lives in the journal.
  SimWorld world(34, /*answers_per_task=*/2);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  std::string dir = FreshDir("journal_only");
  {
    InferenceArgs args = DurableSyncArgs(dir, /*staleness=*/1000000);
    args.min_answers_for_fit = 1000000;  // no fit, no seal
    IncrementalInferenceEngine crashed(schema, rows, args, nullptr);
    Replay(all, 0, 100, &crashed);
    EXPECT_EQ(crashed.refresh_count(), 0);
  }
  EXPECT_EQ(fs::exists(fs::path(dir) / "seg-000000.bin"), false);

  IncrementalInferenceEngine restored(schema, rows, DurableSyncArgs(dir),
                                      nullptr);
  ASSERT_EQ(restored.restored_answers(), 100u);
  Replay(all, 100, all.size(), &restored);
  InferenceResult finalized = restored.Finalize();
  TCrowdModel batch(restored.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, schema, restored.SnapshotAnswers(), restored.args().num_shards);
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(CheckpointRecovery, CheckpointRacingConcurrentRefreshStaysConsistent) {
  // Journal appends (submit threads) race checkpoint-on-seal (async
  // refreshes persisting segments and resetting the journal). Whatever
  // interleaving happens, the durable log must come back complete and in
  // order.
  SimWorld world(35, /*answers_per_task=*/4);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  std::string dir = FreshDir("race");
  {
    ThreadPool pool(2);
    InferenceArgs args = DurableSyncArgs(dir, /*staleness=*/40);
    args.async_refresh = true;
    args.ingest_batch_size = 8;
    IncrementalInferenceEngine engine(schema, rows, args, &pool);

    size_t half = all.size() / 2;
    auto submit_range = [&](size_t lo, size_t hi) {
      for (size_t k = lo; k < hi; k += 17) {
        size_t n = std::min<size_t>(17, hi - k);
        engine.SubmitAnswerBatch(all.data() + k, n);
      }
    };
    std::thread t1([&] { submit_range(0, half); });
    std::thread t2([&] { submit_range(half, all.size()); });
    for (int r = 0; r < 20; ++r) engine.RequestRefresh();
    t1.join();
    t2.join();
    // Drain the ingest queue (journals the leftovers), then crash.
    ASSERT_EQ(engine.num_answers(), all.size());
    EXPECT_TRUE(engine.checkpoint_status().ok());
  }

  IncrementalInferenceEngine restored(schema, rows, DurableSyncArgs(dir),
                                      nullptr);
  ASSERT_EQ(restored.restored_answers(), all.size());
  InferenceResult finalized = restored.Finalize();
  TCrowdModel batch(restored.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, schema, restored.SnapshotAnswers(), restored.args().num_shards);
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

// ---------------------------------------------------------------------------
// Retraction durability: a disavowal journaled between seals must survive a
// crash, and the restored engine must finalize bit-identically to an
// uninterrupted run that saw the same submits and retractions.

TEST(CheckpointRecovery, CrashBetweenRetractionAndSealFinalizesBitIdentical) {
  // Staleness is set unreachable, so NOTHING ever seals: every answer and
  // every retraction record lives in the journal only when the crash lands —
  // the exact between-retraction-and-seal window.
  SimWorld world(41, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  size_t crash_at = all.size() / 2;
  const size_t kRetract[] = {5, crash_at / 2, crash_at - 1};

  auto journal_only = [&](const std::string& d) {
    InferenceArgs args = DurableSyncArgs(d, /*staleness=*/1000000);
    // The first-fit trigger ignores staleness, so push it out of reach too —
    // otherwise one early refresh seals a segment. Finalize stays exact.
    args.min_answers_for_fit = 1000000;
    if (d.empty()) args.checkpoint.directory.clear();
    return args;
  };

  // Uninterrupted reference: same submits, same retractions, no durability.
  IncrementalInferenceEngine uninterrupted(schema, rows, journal_only(""),
                                           nullptr);
  Replay(all, 0, crash_at, &uninterrupted);
  for (size_t id : kRetract) {
    ASSERT_TRUE(
        uninterrupted.RetractAnswer(all[id].worker, all[id].cell).ok());
  }
  Replay(all, crash_at, all.size(), &uninterrupted);
  InferenceResult expected = uninterrupted.Finalize();

  std::string dir = FreshDir("retract_journal");
  {
    IncrementalInferenceEngine crashed(schema, rows, journal_only(dir),
                                       nullptr);
    Replay(all, 0, crash_at, &crashed);
    for (size_t id : kRetract) {
      ASSERT_TRUE(crashed.RetractAnswer(all[id].worker, all[id].cell).ok());
    }
    EXPECT_EQ(crashed.refresh_count(), 0);  // truly no seal before the crash
    // Crash: destructor only — no Finalize, no graceful seal.
  }
  EXPECT_EQ(fs::exists(fs::path(dir) / "seg-000000.bin"), false);

  IncrementalInferenceEngine restored(schema, rows, journal_only(dir),
                                      nullptr);
  ASSERT_TRUE(restored.checkpoint_status().ok());
  ASSERT_EQ(restored.restored_answers(), crash_at - 3);
  EXPECT_EQ(restored.restored_retractions(), 3u);
  Replay(all, crash_at, all.size(), &restored);

  InferenceResult finalized = restored.Finalize();
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
  // And both equal the batch model over the surviving log.
  TCrowdModel batch(restored.args().tcrowd_options);
  InferenceResult batch_result = InferOnShards(
      batch, schema, restored.SnapshotAnswers(), restored.args().num_shards);
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    batch_result.estimated_truth, 0.0);
}

TEST(CheckpointRecovery, RetractionsFoldedAcrossSealsStayBitIdentical) {
  // The mixed case: one retraction lands early enough that a later seal
  // folds it into the manifest's retraction table, another lands after the
  // last seal and survives only as a journal record; then the crash.
  // Restore must union both sources.
  SimWorld world(42, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  size_t mid = all.size() / 3;
  size_t crash_at = (2 * all.size()) / 3;

  auto sealing = [&](const std::string& d) {
    InferenceArgs args = DurableSyncArgs(d, /*staleness=*/48);
    if (d.empty()) args.checkpoint.directory.clear();
    return args;
  };

  IncrementalInferenceEngine uninterrupted(schema, rows, sealing(""),
                                           nullptr);
  Replay(all, 0, mid, &uninterrupted);
  ASSERT_TRUE(
      uninterrupted.RetractAnswer(all[10].worker, all[10].cell).ok());
  Replay(all, mid, crash_at, &uninterrupted);
  ASSERT_TRUE(uninterrupted
                  .RetractAnswer(all[crash_at - 1].worker,
                                 all[crash_at - 1].cell)
                  .ok());
  Replay(all, crash_at, all.size(), &uninterrupted);
  InferenceResult expected = uninterrupted.Finalize();

  std::string dir = FreshDir("retract_folded");
  {
    IncrementalInferenceEngine crashed(schema, rows, sealing(dir), nullptr);
    Replay(all, 0, mid, &crashed);
    ASSERT_TRUE(crashed.RetractAnswer(all[10].worker, all[10].cell).ok());
    Replay(all, mid, crash_at, &crashed);  // seals fold the first retraction
    EXPECT_GT(crashed.refresh_count(), 0);
    ASSERT_TRUE(crashed
                    .RetractAnswer(all[crash_at - 1].worker,
                                   all[crash_at - 1].cell)
                    .ok());
  }

  IncrementalInferenceEngine restored(schema, rows, sealing(dir), nullptr);
  ASSERT_TRUE(restored.checkpoint_status().ok());
  ASSERT_EQ(restored.restored_answers(), crash_at - 2);
  EXPECT_EQ(restored.restored_retractions(), 2u);
  Replay(all, crash_at, all.size(), &restored);

  InferenceResult finalized = restored.Finalize();
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

// ---------------------------------------------------------------------------
// Corruption: recovery refuses loudly, the engine keeps serving.

TEST(CheckpointRecovery, CorruptedSegmentFileFailsCleanlyAndServesOn) {
  SimWorld world(36, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  std::string dir = FreshDir("corrupt_segment");
  {
    IncrementalInferenceEngine engine(schema, rows, DurableSyncArgs(dir),
                                      nullptr);
    Replay(all, 0, 200, &engine);
  }
  std::string seg_path = (fs::path(dir) / "seg-000000.bin").string();
  ASSERT_TRUE(fs::exists(seg_path));
  std::string bytes = ReadFile(seg_path);
  bytes[bytes.size() / 3] ^= 0x08;
  WriteFile(seg_path, bytes);

  IncrementalInferenceEngine engine(schema, rows, DurableSyncArgs(dir),
                                    nullptr);
  Status st = engine.checkpoint_status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(engine.restored_answers(), 0u);
  // Degraded but alive: the engine serves from memory, and it did NOT
  // clobber the (evidence-bearing) snapshot directory.
  Replay(all, 0, all.size(), &engine);
  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, schema, engine.SnapshotAnswers(), engine.args().num_shards);
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
  EXPECT_EQ(ReadFile(seg_path), bytes);
}

TEST(CheckpointRecovery, SchemaViolatingAnswersAreRefusedNotReplayed) {
  // A checkpoint can be CRC-clean yet semantically hostile (hand-edited
  // file, buggy writer): out-of-range labels or cells must refuse with a
  // clean Status instead of aborting a store CHECK or corrupting a later
  // baseline fit.
  Schema schema({Schema::MakeCategorical("c", {"a", "b"}),
                 Schema::MakeContinuous("x", 0.0, 1.0)});
  auto hostile_case = [&](const char* name, const Answer& bad) {
    std::string dir = FreshDir(name);
    {
      SnapshotStore store(
          [&] {
            CheckpointArgs a;
            a.directory = dir;
            a.fsync = false;
            return a;
          }());
      SnapshotStore::RecoveredLog log;
      ASSERT_TRUE(store.Open(schema, 10, &log).ok());
      Answer fine{1, CellRef{0, 0}, Value::Categorical(1)};
      std::vector<Answer> answers = {fine, bad};
      ASSERT_TRUE(store.PersistSealed(answers.data(), answers.size()).ok());
    }
    IncrementalInferenceEngine engine(schema, 10, DurableSyncArgs(dir),
                                      nullptr);
    EXPECT_EQ(engine.checkpoint_status().code(),
              StatusCode::kFailedPrecondition)
        << name;
    EXPECT_EQ(engine.restored_answers(), 0u) << name;
  };
  hostile_case("bad_label", Answer{2, CellRef{1, 0}, Value::Categorical(57)});
  hostile_case("bad_type", Answer{2, CellRef{1, 0}, Value::Continuous(0.5)});
  hostile_case("bad_row", Answer{2, CellRef{99, 0}, Value::Categorical(0)});
  hostile_case("bad_col", Answer{2, CellRef{1, 9}, Value::Categorical(0)});
  hostile_case("missing_value", Answer{2, CellRef{1, 0}, Value()});
}

TEST(CheckpointRecovery, TruncatedManifestFailsCleanly) {
  SimWorld world(37, /*answers_per_task=*/2);
  const std::vector<Answer>& all = world.answers.answers();
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();

  std::string dir = FreshDir("truncated_manifest");
  {
    IncrementalInferenceEngine engine(schema, rows, DurableSyncArgs(dir),
                                      nullptr);
    Replay(all, 0, 100, &engine);
  }
  std::string manifest_path = (fs::path(dir) / "MANIFEST").string();
  std::string bytes = ReadFile(manifest_path);
  ASSERT_GT(bytes.size(), 8u);
  WriteFile(manifest_path, bytes.substr(0, 8));

  IncrementalInferenceEngine engine(schema, rows, DurableSyncArgs(dir),
                                    nullptr);
  EXPECT_EQ(engine.checkpoint_status().code(), StatusCode::kIoError);
  EXPECT_EQ(engine.restored_answers(), 0u);
}

TEST(CheckpointRecovery, FormatVersionMismatchIsRefused) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b"})});
  std::string dir = FreshDir("version_refusal");
  {
    InferenceArgs args = DurableSyncArgs(dir);
    IncrementalInferenceEngine engine(schema, 10, args, nullptr);
  }
  // Patch ONLY the manifest's format-version field (and its CRC).
  std::string manifest_path = (fs::path(dir) / "MANIFEST").string();
  std::string bytes = ReadFile(manifest_path);
  bytes[4] = static_cast<char>(kSegmentCodecVersion + 1);
  bytes.resize(bytes.size() - 4);
  PutCrc32Since(0, &bytes);
  WriteFile(manifest_path, bytes);

  IncrementalInferenceEngine engine(schema, 10, DurableSyncArgs(dir),
                                    nullptr);
  EXPECT_EQ(engine.checkpoint_status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.restored_answers(), 0u);
}

// ---------------------------------------------------------------------------
// Service-level restart: the task/budget ledger resumes from the log.

TEST(CheckpointRecovery, ServiceRestartResumesLedgerAndCompletesRun) {
  SimWorld world(38, /*answers_per_task=*/0);
  const Schema& schema = world.world.schema;
  int rows = world.world.truth.num_rows();
  std::string dir = FreshDir("service_restart");

  ServiceConfig config;
  config.target_answers_per_task = 3;
  config.inference.staleness_threshold = 24;
  config.inference.ingest_batch_size = 1;  // accepted == durable, exactly
  config.inference.checkpoint.directory = dir;
  config.inference.checkpoint.fsync = false;
  config.router.seed = 5;

  int64_t durable_before_crash = 0;
  {
    CrowdService svc(schema, rows, std::make_unique<LoopingPolicy>(), config);
    ASSERT_TRUE(svc.checkpoint_status().ok());
    sim::LoadGeneratorOptions load;
    load.tasks_per_request = 2;
    load.stop_after_answers = 50;
    load.seed = 11;
    sim::LoadGenerator generator(&world.crowd, &svc, load);
    sim::LoadReport r = generator.Run();
    EXPECT_TRUE(r.stopped_early);
    durable_before_crash = r.answers;
    // Crash: the service object dies here, sessions and leases and all.
  }

  CrowdService svc(schema, rows, std::make_unique<LoopingPolicy>(), config);
  ASSERT_TRUE(svc.checkpoint_status().ok());
  ASSERT_EQ(svc.restored_answers(), durable_before_crash);
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.answers_restored, durable_before_crash);
  EXPECT_EQ(stats.budget_spent, durable_before_crash);
  EXPECT_EQ(stats.tasks_assigned, 0);  // leases do not survive a crash

  // Drive the remainder: the restarted service finishes the same campaign.
  sim::LoadGeneratorOptions load;
  load.tasks_per_request = 2;
  load.seed = 13;
  sim::LoadGenerator generator(&world.crowd, &svc, load);
  generator.Run();
  EXPECT_TRUE(svc.Drained());
  ServiceStats done = svc.Stats();
  EXPECT_EQ(done.budget_spent,
            static_cast<int64_t>(3) * rows * schema.num_columns());

  InferenceResult finalized = svc.Finalize();
  TCrowdModel batch(svc.engine().args().tcrowd_options);
  InferenceResult expected =
      InferOnShards(batch, schema, svc.engine().SnapshotAnswers(),
                    svc.engine().args().num_shards);
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

}  // namespace
}  // namespace tcrowd::service
