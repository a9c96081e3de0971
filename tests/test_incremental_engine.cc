#include "service/incremental_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

#include "inference/majority_voting.h"
#include "inference/tcrowd_model.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

using tcrowd::testing::ExpectTablesMatch;
using tcrowd::testing::InferOnShards;
using tcrowd::testing::SimWorld;

InferenceArgs SyncArgs(int staleness) {
  InferenceArgs args;
  args.method = "tcrowd";
  args.tcrowd_options = TCrowdOptions::Fast();
  args.staleness_threshold = staleness;
  args.async_refresh = false;
  args.min_answers_for_fit = 8;
  return args;
}

/// Feeds every answer of `world.answers` into `engine` in log order.
void Replay(const SimWorld& world, IncrementalInferenceEngine* engine) {
  for (const Answer& answer : world.answers.answers()) {
    engine->SubmitAnswer(answer);
  }
}

TEST(IncrementalEngine, NoFitBeforeMinimumAnswers) {
  SimWorld world(11, /*answers_per_task=*/0);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/1), nullptr);
  EXPECT_FALSE(engine.fitted());
  EXPECT_FALSE(engine.Estimate(CellRef{0, 0}).valid());
  EXPECT_EQ(engine.CellEntropy(CellRef{0, 0}), 0.0);
}

TEST(IncrementalEngine, StalenessTriggersRefresh) {
  SimWorld world(12, /*answers_per_task=*/3);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/100), nullptr);
  Replay(world, &engine);
  // 40 rows x 6 cols x 3 answers = 720 submits, staleness 100 -> >= 7.
  EXPECT_TRUE(engine.fitted());
  EXPECT_GE(engine.refresh_count(), 7);
  EXPECT_EQ(engine.num_answers(), world.answers.size());
}

TEST(IncrementalEngine, FinalizeMatchesBatchModelExactly) {
  SimWorld world(13, /*answers_per_task=*/3);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/64), nullptr);
  Replay(world, &engine);

  InferenceResult finalized = engine.Finalize();
  // Same options (as normalized by the engine), same answers: the finalized
  // truths must agree with the batch model bit-for-bit.
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, world.world.schema, engine.SnapshotAnswers(),
      engine.args().num_shards);
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, IncrementalEstimatesTrackBatchEstimates) {
  SimWorld world(14, /*answers_per_task=*/4);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/50), nullptr);
  Replay(world, &engine);

  Table incremental = engine.EstimatedTruth();
  TCrowdModel batch(engine.args().tcrowd_options);
  Table batch_truth = InferOnShards(batch, world.world.schema,
                                    engine.SnapshotAnswers(),
                                    engine.args().num_shards)
                          .estimated_truth;

  const Schema& schema = world.world.schema;
  int cat_total = 0, cat_agree = 0;
  double cont_err = 0.0;
  int cont_total = 0;
  for (int i = 0; i < incremental.num_rows(); ++i) {
    for (int j = 0; j < schema.num_columns(); ++j) {
      const Value& inc = incremental.at(i, j);
      const Value& ref = batch_truth.at(i, j);
      if (!inc.valid() || !ref.valid()) continue;
      if (inc.is_categorical()) {
        ++cat_total;
        if (inc.label() == ref.label()) ++cat_agree;
      } else {
        const ColumnSpec& col = schema.column(j);
        double span = col.max_value - col.min_value;
        cont_err += std::fabs(inc.number() - ref.number()) / span;
        ++cont_total;
      }
    }
  }
  ASSERT_GT(cat_total, 0);
  ASSERT_GT(cont_total, 0);
  // The incremental posterior only staled by < 50 answers relative to the
  // last full EM; it must agree with batch on the vast majority of cells.
  EXPECT_GE(static_cast<double>(cat_agree) / cat_total, 0.9);
  EXPECT_LE(cont_err / cont_total, 0.05);
}

TEST(IncrementalEngine, AsyncRefreshOnPoolConverges) {
  SimWorld world(15, /*answers_per_task=*/3);
  ThreadPool pool(2);
  InferenceArgs args = SyncArgs(/*staleness=*/60);
  args.async_refresh = true;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);
  Replay(world, &engine);
  engine.WaitForRefresh();
  EXPECT_TRUE(engine.fitted());
  EXPECT_GE(engine.refresh_count(), 1);

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, world.world.schema, engine.SnapshotAnswers(),
      engine.args().num_shards);
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, RestrictedVariantsRunTheRestrictedModel) {
  // tc-onlycate must ignore continuous columns entirely (and vice versa),
  // exactly like the batch factory variants.
  SimWorld world(18, /*answers_per_task=*/3);
  InferenceArgs args = SyncArgs(/*staleness=*/64);
  args.method = "tc-onlycate";
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  Replay(world, &engine);
  ASSERT_TRUE(engine.fitted());

  const Schema& schema = world.world.schema;
  Table estimated = engine.EstimatedTruth();
  for (int j : schema.ContinuousColumns()) {
    for (int i = 0; i < estimated.num_rows(); ++i) {
      EXPECT_FALSE(estimated.at(i, j).valid());
    }
    EXPECT_FALSE(engine.Estimate(CellRef{0, j}).valid());
  }

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch =
      TCrowdModel::OnlyCategorical(schema, engine.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, schema, engine.SnapshotAnswers(), engine.args().num_shards);
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, BaselineMethodPathMatchesBatchBaseline) {
  SimWorld world(16, /*answers_per_task=*/3);
  InferenceArgs args;
  args.method = "mv";
  args.staleness_threshold = 40;
  args.async_refresh = false;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  Replay(world, &engine);

  InferenceResult finalized = engine.Finalize();
  InferenceResult expected =
      MajorityVoting().Infer(world.world.schema, engine.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, CoalescesRefreshRequestsIntoOneFollowUp) {
  SimWorld world(19, /*answers_per_task=*/3);
  ThreadPool pool(1);
  InferenceArgs args = SyncArgs(/*staleness=*/1000000);
  args.async_refresh = true;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);

  // Park the pool's only thread so the first scheduled refresh cannot start
  // until we release it: every request below provably lands mid-"refresh".
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });

  Replay(world, &engine);  // the 8th answer schedules the first refresh
  for (int r = 0; r < 5; ++r) engine.RequestRefresh();

  release.set_value();
  engine.WaitForRefresh();
  // One initial refresh plus exactly one coalesced follow-up, no matter how
  // many requests queued up behind it.
  EXPECT_EQ(engine.refresh_count(), 2);
  EXPECT_TRUE(engine.fitted());

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, world.world.schema, engine.SnapshotAnswers(),
      engine.args().num_shards);
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, RequestRefreshBelowMinimumAnswersIsIgnored) {
  SimWorld world(20, /*answers_per_task=*/0);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/1), nullptr);
  engine.RequestRefresh();
  EXPECT_EQ(engine.refresh_count(), 0);
  EXPECT_FALSE(engine.fitted());
}

TEST(IncrementalEngine, ShardedFinalizeMatchesShardedBatchBitForBit) {
  // 40 rows x 6 cols x 9 answers = 2160 answers: enough to engage the
  // sharded M-step, so this exercises the tree reduction end to end through
  // both the engine's persistent executor and the batch model's transient
  // one. Zero tolerance: the two paths must agree to the last bit.
  SimWorld world(23, /*answers_per_task=*/9);
  ThreadPool pool(2);
  InferenceArgs args = SyncArgs(/*staleness=*/500);
  args.async_refresh = true;
  args.num_shards = 3;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);
  Replay(world, &engine);

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, world.world.schema, engine.SnapshotAnswers(),
      engine.args().num_shards);
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(IncrementalEngine, RefreshReusesSegmentsNoFullRebuild) {
  // Regression for the per-refresh O(total-answers) rebuild+copy: with
  // compaction disabled, every answer must be indexed into a sealed
  // segment EXACTLY once across all refreshes — refresh-after-K-new-answers
  // does O(K) layout work, never a rebuild of the whole matrix.
  SimWorld world(21, /*answers_per_task=*/3);  // 40 x 6 x 3 = 720 answers
  InferenceArgs args = SyncArgs(/*staleness=*/50);
  args.store.max_sealed_segments = 0;
  args.store.epoch_growth_factor = 0.0;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  Replay(world, &engine);
  EXPECT_GE(engine.refresh_count(), 10);

  SegmentedAnswerStore::Stats stats = engine.store_stats();
  EXPECT_EQ(stats.appended, world.answers.size());
  // Every refresh sealed only its new tail: each answer was indexed at most
  // once (only the post-last-refresh remainder is still unsealed), and
  // nothing was ever re-indexed. The historical rebuild-per-fit would have
  // indexed ~refresh_count * answers/2 ≈ 5000+ entries here.
  EXPECT_LE(stats.sealed_entries, stats.appended);
  EXPECT_GE(stats.sealed_entries, stats.appended - 50);
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.compacted_entries, 0u);
  EXPECT_EQ(static_cast<uint64_t>(stats.sealed_segments),
            static_cast<uint64_t>(engine.refresh_count()));
}

TEST(IncrementalEngine, BatchSubmitFinalizesBitIdenticalToPerAnswer) {
  SimWorld world(22, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();

  IncrementalInferenceEngine per_answer(world.world.schema,
                                        world.world.truth.num_rows(),
                                        SyncArgs(/*staleness=*/64), nullptr);
  Replay(world, &per_answer);

  IncrementalInferenceEngine batched(world.world.schema,
                                     world.world.truth.num_rows(),
                                     SyncArgs(/*staleness=*/64), nullptr);
  for (size_t lo = 0; lo < all.size(); lo += 37) {
    size_t n = std::min<size_t>(37, all.size() - lo);
    batched.SubmitAnswerBatch(all.data() + lo, n);
  }
  EXPECT_EQ(batched.num_answers(), per_answer.num_answers());

  // Same answers in the same order: the finalized truths must agree with
  // each other and with the batch model, to the last bit.
  InferenceResult a = per_answer.Finalize();
  InferenceResult b = batched.Finalize();
  ExpectTablesMatch(world.world.schema, a.estimated_truth, b.estimated_truth,
                    0.0);
  TCrowdModel batch(batched.args().tcrowd_options);
  InferenceResult expected =
      InferOnShards(batch, world.world.schema, batched.SnapshotAnswers(),
                    batched.args().num_shards);
  ExpectTablesMatch(world.world.schema, b.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(IncrementalEngine, IngestQueueGivesReadYourWrites) {
  // Answers below every drain trigger sit in the ingest queue; any read
  // must still observe them (reads drain first).
  SimWorld world(24, /*answers_per_task=*/1);
  InferenceArgs args = SyncArgs(/*staleness=*/1000000);
  args.min_answers_for_fit = 1000000;
  args.ingest_batch_size = 1000000;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  for (int k = 0; k < 5; ++k) {
    engine.SubmitAnswer(world.answers.answer(k));
  }
  EXPECT_EQ(engine.num_answers(), 5u);
  EXPECT_EQ(engine.SnapshotAnswers().size(), 5u);
  EXPECT_EQ(engine.store_stats().appended, 5u);
}

TEST(IncrementalEngine, RefreshRacingBatchIngestStaysConsistent) {
  // Two threads page batches in while a third keeps requesting refreshes:
  // the sealed-segment substrate must absorb everything exactly once and
  // finalize bit-identical to the batch model.
  SimWorld world(25, /*answers_per_task=*/4);
  ThreadPool pool(2);
  InferenceArgs args = SyncArgs(/*staleness=*/40);
  args.async_refresh = true;
  args.ingest_batch_size = 16;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);

  const std::vector<Answer>& all = world.answers.answers();
  size_t half = all.size() / 2;
  auto submit_range = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; k += 23) {
      size_t n = std::min<size_t>(23, hi - k);
      engine.SubmitAnswerBatch(all.data() + k, n);
    }
  };
  std::thread t1([&] { submit_range(0, half); });
  std::thread t2([&] { submit_range(half, all.size()); });
  for (int r = 0; r < 20; ++r) engine.RequestRefresh();
  t1.join();
  t2.join();
  engine.WaitForRefresh();

  EXPECT_EQ(engine.num_answers(), all.size());
  SegmentedAnswerStore::Stats stats = engine.store_stats();
  EXPECT_EQ(stats.appended, all.size());

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, world.world.schema, engine.SnapshotAnswers(),
      engine.args().num_shards);
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(IncrementalEngine, DestructorDrainsInFlightRefresh) {
  SimWorld world(17, /*answers_per_task=*/3);
  ThreadPool pool(2);
  {
    InferenceArgs args = SyncArgs(/*staleness=*/30);
    args.async_refresh = true;
    IncrementalInferenceEngine engine(world.world.schema,
                                      world.world.truth.num_rows(), args,
                                      &pool);
    Replay(world, &engine);
    // Engine destroyed with refreshes possibly still queued/running.
  }
  SUCCEED();
}

}  // namespace
}  // namespace tcrowd::service
