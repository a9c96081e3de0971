#include "inference/answer_segment.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "inference/em_executor.h"
#include "inference/segment_store.h"
#include "inference/tcrowd_model.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

using tcrowd::testing::SimWorld;

/// Builds a snapshot over `answers` split into `num_segments` chunks, with
/// the SAME column mask / standardization epoch / first-appearance worker
/// registry the batch path computes over the whole log — isolating the
/// segmentation itself as the only difference from the flat fit.
AnswerMatrixSnapshot SegmentedSnapshot(const Schema& schema,
                                       const AnswerSet& answers,
                                       const TCrowdModel& model,
                                       int num_segments) {
  AnswerMatrixSnapshot snap;
  snap.num_rows = answers.num_rows();
  snap.num_cols = answers.num_cols();
  snap.column_active = model.ActiveColumns(snap.num_cols);

  std::vector<std::vector<double>> col_values(snap.num_cols);
  std::unordered_map<WorkerId, int> worker_to_dense;
  for (const Answer& a : answers.answers()) {
    if (schema.column(a.cell.col).type == ColumnType::kContinuous) {
      col_values[a.cell.col].push_back(a.value.number());
    }
    auto [it, inserted] = worker_to_dense.emplace(
        a.worker, static_cast<int>(snap.worker_ids.size()));
    if (inserted) snap.worker_ids.push_back(a.worker);
  }
  ComputeColumnStandardization(schema, col_values, &snap.col_center,
                               &snap.col_scale);

  size_t n = answers.size();
  size_t base = n / num_segments;
  snap.offsets.push_back(0);
  size_t start = 0;
  for (int s = 0; s < num_segments; ++s) {
    // Uneven chunks (the last takes the remainder) exercise offset math.
    size_t len = s + 1 < num_segments ? base : n - start;
    if (len == 0) continue;
    snap.segments.push_back(AnswerSegment::Build(
        schema, snap.column_active, snap.col_center, snap.col_scale,
        answers.answers().data() + start, len, worker_to_dense));
    start += len;
    snap.offsets.push_back(start);
  }
  return snap;
}

/// Zero-tolerance comparison of two fitted states: the segmented EM must
/// reproduce the flat EM to the last bit.
void ExpectStatesBitIdentical(const TCrowdState& a, const TCrowdState& b) {
  ASSERT_EQ(a.num_rows, b.num_rows);
  ASSERT_EQ(a.num_cols, b.num_cols);
  EXPECT_EQ(a.em_iterations, b.em_iterations);
  ASSERT_EQ(a.objective_trace.size(), b.objective_trace.size());
  for (size_t k = 0; k < a.objective_trace.size(); ++k) {
    EXPECT_EQ(a.objective_trace[k], b.objective_trace[k]) << "trace " << k;
  }
  for (int i = 0; i < a.num_rows; ++i) {
    EXPECT_EQ(a.row_difficulty[i], b.row_difficulty[i]) << "alpha " << i;
  }
  for (int j = 0; j < a.num_cols; ++j) {
    EXPECT_EQ(a.col_difficulty[j], b.col_difficulty[j]) << "beta " << j;
    EXPECT_EQ(a.col_center[j], b.col_center[j]) << "center " << j;
    EXPECT_EQ(a.col_scale[j], b.col_scale[j]) << "scale " << j;
  }
  ASSERT_EQ(a.worker_phi.size(), b.worker_phi.size());
  for (const auto& [worker, phi] : a.worker_phi) {
    auto it = b.worker_phi.find(worker);
    ASSERT_NE(it, b.worker_phi.end()) << "worker " << worker;
    EXPECT_EQ(phi, it->second) << "phi of worker " << worker;
  }
  ASSERT_EQ(a.posteriors.size(), b.posteriors.size());
  for (size_t k = 0; k < a.posteriors.size(); ++k) {
    const CellPosterior& pa = a.posteriors[k];
    const CellPosterior& pb = b.posteriors[k];
    EXPECT_EQ(pa.mean, pb.mean) << "cell " << k;
    EXPECT_EQ(pa.variance, pb.variance) << "cell " << k;
    ASSERT_EQ(pa.probs.size(), pb.probs.size()) << "cell " << k;
    for (size_t z = 0; z < pa.probs.size(); ++z) {
      EXPECT_EQ(pa.probs[z], pb.probs[z]) << "cell " << k << " label " << z;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-vs-segmented bit-for-bit equivalence (the fig-12 inference workload:
// mixed categorical/continuous synthetic world, full EM).

TEST(AnswerSegments, SegmentedFitIsBitIdenticalToFlatFit) {
  SimWorld world(771, /*answers_per_task=*/5);
  TCrowdModel model(TCrowdOptions::Fast());

  TCrowdState flat = model.Fit(world.world.schema, world.answers);
  AnswerMatrixSnapshot snap =
      SegmentedSnapshot(world.world.schema, world.answers, model, 7);
  ASSERT_EQ(snap.segments.size(), 7u);
  TCrowdState segmented = model.Fit(world.world.schema, snap, nullptr);

  ExpectStatesBitIdentical(flat, segmented);
}

TEST(AnswerSegments, ShardedSegmentedFitIsBitIdenticalToShardedFlatFit) {
  // 40 rows x 6 cols x 9 answers = 2160 answers: enough to engage the
  // sharded M-step, so segment-boundary / shard-boundary interactions are
  // exercised together.
  SimWorld world(772, /*answers_per_task=*/9);
  TCrowdModel model(TCrowdOptions::Fast());
  EmExecutor executor(3);

  TCrowdState flat = model.Fit(world.world.schema, world.answers, &executor);
  AnswerMatrixSnapshot snap =
      SegmentedSnapshot(world.world.schema, world.answers, model, 5);
  TCrowdState segmented = model.Fit(world.world.schema, snap, &executor);

  ExpectStatesBitIdentical(flat, segmented);
}

TEST(AnswerSegments, RestrictedVariantFitMatchesAcrossSegmentation) {
  SimWorld world(773, /*answers_per_task=*/4);
  TCrowdModel model =
      TCrowdModel::OnlyCategorical(world.world.schema, TCrowdOptions::Fast());

  TCrowdState flat = model.Fit(world.world.schema, world.answers);
  AnswerMatrixSnapshot snap =
      SegmentedSnapshot(world.world.schema, world.answers, model, 4);
  TCrowdState segmented = model.Fit(world.world.schema, snap, nullptr);

  ExpectStatesBitIdentical(flat, segmented);
}

// ---------------------------------------------------------------------------
// SegmentedAnswerStore: layout reuse, seal/compact edges, tombstones.

SegmentedAnswerStore::Options NoCompaction() {
  SegmentedAnswerStore::Options opt;
  opt.max_sealed_segments = 0;     // disable fragmentation compaction
  opt.epoch_growth_factor = 0.0;   // disable epoch-growth compaction
  return opt;
}

TEST(SegmentStore, SealReusesPreviouslySealedSegments) {
  SimWorld world(774, /*answers_per_task=*/3);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  const std::vector<Answer>& all = world.answers.answers();
  store.AppendBatch(all.data(), 100);
  AnswerMatrixSnapshot snap1 = store.SealAndSnapshot();
  ASSERT_EQ(snap1.segments.size(), 1u);
  EXPECT_EQ(snap1.num_answers(), 100u);

  store.AppendBatch(all.data() + 100, 50);
  AnswerMatrixSnapshot snap2 = store.SealAndSnapshot();
  ASSERT_EQ(snap2.segments.size(), 2u);
  EXPECT_EQ(snap2.num_answers(), 150u);
  // Segment REUSE, not rebuild: the first slab is the same object.
  EXPECT_EQ(snap1.segments[0].get(), snap2.segments[0].get());

  const SegmentedAnswerStore::Stats& stats = store.stats();
  EXPECT_EQ(stats.appended, 150u);
  EXPECT_EQ(stats.sealed_segments, 2u);
  EXPECT_EQ(stats.sealed_entries, 150u);  // every answer indexed exactly once
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.compacted_entries, 0u);
}

TEST(SegmentStore, SealOnEmptyTailIsANoOp) {
  SimWorld world(775, /*answers_per_task=*/3);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  store.AppendBatch(world.answers.answers().data(), 60);
  AnswerMatrixSnapshot first = store.SealAndSnapshot();
  AnswerMatrixSnapshot again = store.SealAndSnapshot();
  EXPECT_EQ(first.segments.size(), again.segments.size());
  EXPECT_EQ(first.num_answers(), again.num_answers());
  EXPECT_EQ(store.stats().sealed_segments, 1u);
  // An empty store snapshots cleanly too.
  SegmentedAnswerStore empty(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  AnswerMatrixSnapshot none = empty.SealAndSnapshot();
  EXPECT_EQ(none.num_answers(), 0u);
  EXPECT_TRUE(none.segments.empty());
}

TEST(SegmentStore, FragmentationThresholdTriggersCompaction) {
  SimWorld world(776, /*answers_per_task=*/4);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore::Options opt;
  opt.max_sealed_segments = 3;
  opt.epoch_growth_factor = 0.0;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             opt);
  const std::vector<Answer>& all = world.answers.answers();
  size_t chunk = all.size() / 4;
  AnswerMatrixSnapshot snap;
  for (int s = 0; s < 4; ++s) {
    size_t lo = s * chunk;
    size_t hi = s + 1 < 4 ? lo + chunk : all.size();
    store.AppendBatch(all.data() + lo, hi - lo);
    snap = store.SealAndSnapshot();
  }
  // The 4th seal would have exceeded 3 sealed segments -> one compaction.
  EXPECT_EQ(store.stats().compactions, 1u);
  EXPECT_EQ(store.num_sealed_segments(), 1);
  EXPECT_EQ(snap.num_answers(), all.size());

  // Post-compaction the epoch equals the full-data epoch, so a fit over the
  // compacted snapshot is bit-identical to the batch fit.
  TCrowdModel model(TCrowdOptions::Fast());
  ExpectStatesBitIdentical(model.Fit(schema, world.answers),
                           model.Fit(schema, snap, nullptr));
}

TEST(SegmentStore, EpochGrowthTriggersRestandardization) {
  SimWorld world(777, /*answers_per_task=*/5);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore::Options opt;
  opt.max_sealed_segments = 0;
  opt.epoch_growth_factor = 2.0;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             opt);
  const std::vector<Answer>& all = world.answers.answers();
  store.AppendBatch(all.data(), 100);
  store.SealAndSnapshot();  // epoch computed over 100 answers
  EXPECT_EQ(store.stats().compactions, 0u);
  store.AppendBatch(all.data() + 100, all.size() - 100);  // >= 2x growth
  AnswerMatrixSnapshot snap = store.SealAndSnapshot();
  EXPECT_EQ(store.stats().compactions, 1u);

  // The refreshed epoch matches what the batch path computes over all data.
  std::vector<std::vector<double>> col_values(schema.num_columns());
  for (const Answer& a : all) {
    if (schema.column(a.cell.col).type == ColumnType::kContinuous) {
      col_values[a.cell.col].push_back(a.value.number());
    }
  }
  std::vector<double> center, scale;
  ComputeColumnStandardization(schema, col_values, &center, &scale);
  for (int j = 0; j < schema.num_columns(); ++j) {
    EXPECT_EQ(snap.col_center[j], center[j]) << "col " << j;
    EXPECT_EQ(snap.col_scale[j], scale[j]) << "col " << j;
  }
}

TEST(SegmentStore, TombstoneScrubRebuildsOnlyAffectedSegments) {
  SimWorld world(778, /*answers_per_task=*/3);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  const std::vector<Answer>& all = world.answers.answers();
  store.AppendBatch(all.data(), 40);
  store.SealAndSnapshot();
  store.AppendBatch(all.data() + 40, 40);
  store.SealAndSnapshot();
  store.AppendBatch(all.data() + 80, 10);  // tail

  const Answer& dead_sealed = all[45];  // lives in the 2nd segment
  int count_sealed =
      store.CellAnswerCount(dead_sealed.cell.row, dead_sealed.cell.col);
  store.Tombstone(45);
  store.Tombstone(45);  // duplicate retraction is a no-op
  store.Tombstone(83);
  EXPECT_EQ(
      store.CellAnswerCount(dead_sealed.cell.row, dead_sealed.cell.col),
      count_sealed - 1);

  AnswerMatrixSnapshot snap = store.SealAndSnapshot();
  EXPECT_EQ(snap.num_answers(), 88u);
  EXPECT_EQ(store.stats().tombstones_dropped, 2u);
  EXPECT_EQ(store.stats().scrubbed_segments, 1u);  // only the 2nd segment
  EXPECT_EQ(store.stats().compactions, 0u);
  EXPECT_EQ(store.stats().pending_tombstones, 0u);

  // The materialized log equals the original log minus the two retractions.
  AnswerSet survivors = store.MaterializeAnswerSet();
  ASSERT_EQ(survivors.size(), 88u);
  size_t want = 0;
  for (size_t id = 0; id < 90; ++id) {
    if (id == 45 || id == 83) continue;
    const Answer& got = survivors.answer(static_cast<int>(want));
    EXPECT_EQ(got.worker, all[id].worker);
    EXPECT_EQ(got.cell.row, all[id].cell.row);
    EXPECT_EQ(got.cell.col, all[id].cell.col);
    ++want;
  }
}

TEST(SegmentStore, TombstoneThresholdForcesFullCompaction) {
  SimWorld world(779, /*answers_per_task=*/3);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore::Options opt = NoCompaction();
  opt.tombstone_compact_threshold = 1;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             opt);
  const std::vector<Answer>& all = world.answers.answers();
  store.AppendBatch(all.data(), all.size());
  store.SealAndSnapshot();
  store.Tombstone(7);
  AnswerMatrixSnapshot snap = store.SealAndSnapshot();
  EXPECT_EQ(store.stats().compactions, 1u);
  EXPECT_EQ(snap.num_answers(), all.size() - 1);

  // Full compaction recomputes registry + epoch over the survivors, so the
  // fit equals a batch fit on the surviving answers bit for bit.
  AnswerSet survivors(world.answers.num_rows(), schema.num_columns());
  for (size_t id = 0; id < all.size(); ++id) {
    if (id != 7) survivors.Add(all[id]);
  }
  TCrowdModel model(TCrowdOptions::Fast());
  ExpectStatesBitIdentical(model.Fit(schema, survivors),
                           model.Fit(schema, snap, nullptr));
}

TEST(SegmentStore, RetractThenReanswerSameCellKeepsCountsAndFit) {
  // A worker's answer is retracted and the SAME worker later re-answers the
  // SAME cell: the count dips and recovers, and the fit over the store
  // equals a flat fit over survivors-plus-replacement in log order.
  Schema schema{{Schema::MakeCategorical("c", {"a", "b"}),
                 Schema::MakeContinuous("x", 0.0, 10.0)}};
  std::vector<Answer> batch;
  for (int i = 0; i < 4; ++i) {
    for (WorkerId w = 0; w < 5; ++w) {
      batch.push_back(Answer{w, CellRef{i, 0}, Value::Categorical(i % 2)});
      batch.push_back(
          Answer{w, CellRef{i, 1}, Value::Continuous(2.0 + i + 0.1 * w)});
    }
  }
  SegmentedAnswerStore store(schema, 4,
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  store.AppendBatch(batch.data(), batch.size());
  store.SealAndSnapshot();

  // Worker 2's answer on cell (1,0) sits at id (1*5+2)*2 = 14.
  const size_t dead_id = 14;
  ASSERT_EQ(batch[dead_id].worker, 2);
  ASSERT_EQ(batch[dead_id].cell.row, 1);
  ASSERT_EQ(batch[dead_id].cell.col, 0);
  int before = store.CellAnswerCount(1, 0);
  store.Tombstone(dead_id);
  EXPECT_EQ(store.CellAnswerCount(1, 0), before - 1);

  Answer redo{2, CellRef{1, 0}, Value::Categorical(1)};
  store.AppendBatch(&redo, 1);
  EXPECT_EQ(store.CellAnswerCount(1, 0), before);

  AnswerMatrixSnapshot snap = store.SealAndSnapshot();
  EXPECT_EQ(snap.num_answers(), batch.size());
  EXPECT_EQ(store.stats().tombstones_dropped, 1u);
  EXPECT_EQ(store.stats().pending_tombstones, 0u);

  AnswerSet flat(4, 2);
  for (size_t id = 0; id < batch.size(); ++id) {
    if (id != dead_id) flat.Add(batch[id]);
  }
  flat.Add(redo);
  TCrowdModel model(TCrowdOptions::Fast());
  ExpectStatesBitIdentical(model.Fit(schema, flat),
                           model.Fit(schema, snap, nullptr));
}

TEST(SegmentStore, TombstoneInUnsealedTailDropsAtTheNextSeal) {
  SimWorld world(781, /*answers_per_task=*/3);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  const std::vector<Answer>& all = world.answers.answers();
  store.AppendBatch(all.data(), 50);
  store.SealAndSnapshot();
  store.AppendBatch(all.data() + 50, 10);  // unsealed tail: ids 50..59

  const Answer& dead = all[55];
  int before = store.CellAnswerCount(dead.cell.row, dead.cell.col);
  store.Tombstone(55);
  // Logically dead immediately, physically still pending.
  EXPECT_EQ(store.CellAnswerCount(dead.cell.row, dead.cell.col), before - 1);
  EXPECT_EQ(store.stats().pending_tombstones, 1u);
  EXPECT_EQ(store.stats().tombstones_dropped, 0u);

  AnswerMatrixSnapshot snap = store.SealAndSnapshot();
  EXPECT_EQ(snap.num_answers(), 59u);
  EXPECT_EQ(store.stats().pending_tombstones, 0u);
  EXPECT_EQ(store.stats().tombstones_dropped, 1u);
  // Dropping a tail tombstone never rebuilds a sealed segment.
  EXPECT_EQ(store.stats().scrubbed_segments, 0u);

  // The survivors are the log minus id 55, order preserved.
  AnswerSet survivors = store.MaterializeAnswerSet();
  ASSERT_EQ(survivors.size(), 59u);
  size_t want = 0;
  for (size_t id = 0; id < 60; ++id) {
    if (id == 55) continue;
    EXPECT_EQ(survivors.answer(static_cast<int>(want)).worker,
              all[id].worker);
    ++want;
  }
}

TEST(SegmentStore, TombstoneCrossingFragmentationCompactionIsDropped) {
  // A pending tombstone in an early segment while a fragmentation
  // compaction fires: the compaction must swallow the tombstone (not lose
  // it, not apply it twice) and the compacted fit must equal a flat fit
  // over the survivors.
  SimWorld world(782, /*answers_per_task=*/4);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore::Options opt;
  opt.max_sealed_segments = 2;
  opt.epoch_growth_factor = 0.0;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             opt);
  const std::vector<Answer>& all = world.answers.answers();
  size_t chunk = all.size() / 3;
  store.AppendBatch(all.data(), chunk);
  store.SealAndSnapshot();
  store.AppendBatch(all.data() + chunk, chunk);
  store.SealAndSnapshot();
  ASSERT_EQ(store.stats().compactions, 0u);

  store.Tombstone(3);  // lives in the FIRST sealed segment
  store.AppendBatch(all.data() + 2 * chunk, all.size() - 2 * chunk);
  // This seal exceeds max_sealed_segments -> full compaction, with the
  // tombstone still pending.
  AnswerMatrixSnapshot snap = store.SealAndSnapshot();
  EXPECT_EQ(store.stats().compactions, 1u);
  EXPECT_EQ(store.stats().tombstones_dropped, 1u);
  EXPECT_EQ(store.stats().pending_tombstones, 0u);
  EXPECT_EQ(snap.num_answers(), all.size() - 1);

  AnswerSet survivors(world.answers.num_rows(), schema.num_columns());
  for (size_t id = 0; id < all.size(); ++id) {
    if (id != 3) survivors.Add(all[id]);
  }
  TCrowdModel model(TCrowdOptions::Fast());
  ExpectStatesBitIdentical(model.Fit(schema, survivors),
                           model.Fit(schema, snap, nullptr));
}

TEST(SegmentStore, TombstoneStatsBalanceAcrossMixedRetractions) {
  // pending + dropped must balance like a ledger across scrubs, tail drops,
  // and duplicates — the accounting the service's retraction counters sit
  // on top of.
  SimWorld world(783, /*answers_per_task=*/3);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  const std::vector<Answer>& all = world.answers.answers();
  store.AppendBatch(all.data(), 40);
  store.SealAndSnapshot();
  store.AppendBatch(all.data() + 40, 20);  // tail: ids 40..59

  store.Tombstone(12);  // sealed
  store.Tombstone(33);  // sealed
  store.Tombstone(45);  // tail
  store.Tombstone(12);  // duplicate: must not double-count
  EXPECT_EQ(store.stats().pending_tombstones, 3u);
  EXPECT_EQ(store.stats().tombstones_dropped, 0u);

  store.SealAndSnapshot();
  EXPECT_EQ(store.stats().pending_tombstones, 0u);
  EXPECT_EQ(store.stats().tombstones_dropped, 3u);
  EXPECT_EQ(store.stats().scrubbed_segments, 1u);  // one sealed segment hit
  EXPECT_EQ(store.MaterializeAnswerSet().size(), 57u);

  // Post-seal the store has renumbered: a fresh tombstone on the new
  // numbering still lands on the intended answer.
  const Answer& target = all[50];  // survived; new id shifts by prior kills
  int count = store.CellAnswerCount(target.cell.row, target.cell.col);
  store.Tombstone(47);  // 50 minus the three earlier kills below it
  EXPECT_EQ(store.CellAnswerCount(target.cell.row, target.cell.col),
            count - 1);
  EXPECT_EQ(store.stats().pending_tombstones, 1u);
}

TEST(SegmentStore, DuplicateWorkerCellAnswersInOneBatch) {
  // The same worker answering the same cell twice within one batch must be
  // indexed as two entries (the store is a log, not a set) and fit exactly
  // like the equivalent flat AnswerSet.
  Schema schema{{Schema::MakeCategorical("c", {"a", "b"}),
                 Schema::MakeContinuous("x", 0.0, 10.0)}};
  AnswerSet flat(4, 2);
  std::vector<Answer> batch;
  for (int i = 0; i < 4; ++i) {
    for (WorkerId w = 0; w < 5; ++w) {
      batch.push_back(Answer{w, CellRef{i, 0}, Value::Categorical(i % 2)});
      batch.push_back(
          Answer{w, CellRef{i, 1}, Value::Continuous(2.0 + i + 0.1 * w)});
    }
  }
  // Duplicates: worker 2 re-answers both cells of row 1 inside the batch.
  batch.push_back(Answer{2, CellRef{1, 0}, Value::Categorical(0)});
  batch.push_back(Answer{2, CellRef{1, 1}, Value::Continuous(9.5)});
  for (const Answer& a : batch) flat.Add(a);

  SegmentedAnswerStore store(schema, 4,
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  store.AppendBatch(batch.data(), batch.size());
  EXPECT_EQ(store.CellAnswerCount(1, 0), 6);
  EXPECT_EQ(store.CellAnswerCount(1, 1), 6);
  AnswerMatrixSnapshot snap = store.SealAndSnapshot();
  ASSERT_EQ(snap.num_answers(), batch.size());

  TCrowdModel model(TCrowdOptions::Fast());
  ExpectStatesBitIdentical(model.Fit(schema, flat),
                           model.Fit(schema, snap, nullptr));
}

TEST(SegmentStore, CopyAnswersSinceReconstructsTheTail) {
  SimWorld world(780, /*answers_per_task=*/3);
  const Schema& schema = world.world.schema;
  SegmentedAnswerStore store(schema, world.answers.num_rows(),
                             std::vector<bool>(schema.num_columns(), true),
                             NoCompaction());
  const std::vector<Answer>& all = world.answers.answers();
  store.AppendBatch(all.data(), 50);
  store.SealAndSnapshot();
  store.AppendBatch(all.data() + 50, 30);  // 10 sealed-after + tail mix
  std::vector<Answer> since = store.CopyAnswersSince(45);
  ASSERT_EQ(since.size(), 35u);
  for (size_t k = 0; k < since.size(); ++k) {
    const Answer& want = all[45 + k];
    EXPECT_EQ(since[k].worker, want.worker);
    EXPECT_EQ(since[k].cell.row, want.cell.row);
    EXPECT_EQ(since[k].cell.col, want.cell.col);
    if (want.value.is_continuous()) {
      EXPECT_EQ(since[k].value.number(), want.value.number());
    } else {
      EXPECT_EQ(since[k].value.label(), want.value.label());
    }
  }
}

}  // namespace
}  // namespace tcrowd
