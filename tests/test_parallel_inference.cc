// Tests for the sharded EM (TCrowdModel::Fit on a multi-shard EmExecutor),
// the parallel/distributed inference the paper lists as future work.
#include <gtest/gtest.h>

#include "inference/em_executor.h"
#include "inference/tcrowd_model.h"
#include "platform/metrics.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

using testing::InferOnShards;

sim::TableGeneratorOptions BigTable() {
  sim::TableGeneratorOptions opt;
  opt.num_rows = 80;
  opt.num_cols = 8;
  return opt;
}

TEST(ParallelInference, MatchesSerialEstimates) {
  testing::SimWorld w(991, 5, BigTable());
  InferenceResult serial = TCrowdModel().Infer(w.world.schema, w.answers);
  InferenceResult parallel =
      InferOnShards(TCrowdModel(), w.world.schema, w.answers, 4);
  int label_mismatches = 0;
  for (int i = 0; i < w.world.truth.num_rows(); ++i) {
    for (int j = 0; j < w.world.schema.num_columns(); ++j) {
      const Value& a = serial.estimated_truth.at(i, j);
      const Value& b = parallel.estimated_truth.at(i, j);
      ASSERT_EQ(a.valid(), b.valid());
      if (!a.valid()) continue;
      if (a.is_categorical()) {
        // Floating-point reduction order may flip near-exact ties; require
        // near-total agreement rather than bitwise identity.
        label_mismatches += a.label() != b.label();
      } else {
        EXPECT_NEAR(a.number(), b.number(),
                    1e-4 * (1.0 + std::fabs(a.number())));
      }
    }
  }
  EXPECT_LE(label_mismatches, 2);
}

TEST(ParallelInference, MatchesSerialWorkerQuality) {
  testing::SimWorld w(992, 4, BigTable());
  TCrowdState serial = TCrowdModel().Fit(w.world.schema, w.answers);
  EmExecutor executor(4);
  TCrowdState parallel =
      TCrowdModel().Fit(w.world.schema, w.answers, &executor);
  for (const auto& [worker, phi] : serial.worker_phi) {
    ASSERT_TRUE(parallel.worker_phi.count(worker));
    EXPECT_NEAR(parallel.worker_phi.at(worker), phi, 1e-3 * (1.0 + phi))
        << "worker " << worker;
  }
}

TEST(ParallelInference, DeterministicForFixedShardCount) {
  testing::SimWorld w(993, 4, BigTable());
  EmExecutor first(3), second(3);
  TCrowdState a = TCrowdModel().Fit(w.world.schema, w.answers, &first);
  TCrowdState b = TCrowdModel().Fit(w.world.schema, w.answers, &second);
  ASSERT_EQ(a.posteriors.size(), b.posteriors.size());
  for (size_t k = 0; k < a.posteriors.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.posteriors[k].mean, b.posteriors[k].mean);
    EXPECT_DOUBLE_EQ(a.posteriors[k].variance, b.posteriors[k].variance);
  }
  for (const auto& [worker, phi] : a.worker_phi) {
    EXPECT_DOUBLE_EQ(b.worker_phi.at(worker), phi);
  }
}

TEST(ParallelInference, QualityUnaffected) {
  testing::SimWorld w(994, 5, BigTable());
  InferenceResult r =
      InferOnShards(TCrowdModel(), w.world.schema, w.answers, 4);
  EXPECT_LT(Metrics::ErrorRate(w.world.truth, r.estimated_truth), 0.4);
  EXPECT_LT(Metrics::Mnad(w.world.truth, r.estimated_truth), 0.8);
}

TEST(ParallelInference, SmallInputsStaySerialAndCorrect) {
  // Below the parallel-dispatch threshold the pool path is bypassed; the
  // shards must still be harmless.
  Schema schema({Schema::MakeCategorical("c", {"a", "b"})});
  AnswerSet answers(2, 1);
  answers.Add(0, CellRef{0, 0}, Value::Categorical(1));
  answers.Add(1, CellRef{0, 0}, Value::Categorical(1));
  answers.Add(0, CellRef{1, 0}, Value::Categorical(0));
  InferenceResult r = InferOnShards(TCrowdModel(), schema, answers, 8);
  EXPECT_EQ(r.estimated_truth.at(0, 0).label(), 1);
  EXPECT_EQ(r.estimated_truth.at(1, 0).label(), 0);
}

}  // namespace
}  // namespace tcrowd
