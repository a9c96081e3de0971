// Warm-started refits: TCrowdModel::Fit from an earlier fit's parameters,
// the policies' refit chain, and the engine's refreshes — while Finalize()
// and batch fits stay cold and bit-identical.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "assignment/policies.h"
#include "common/thread_pool.h"
#include "inference/tcrowd_model.h"
#include "service/incremental_engine.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

using testing::SimWorld;

TEST(WarmStart, ConvergedFitRestartsWithinTwoIterations) {
  SimWorld w(81, /*answers_per_task=*/4);
  // Converged tightly, so the cold fit sits at the fixed point the
  // warm-started one restarts from.
  TCrowdOptions opt;
  opt.max_em_iterations = 500;
  opt.param_tolerance = 1e-9;
  TCrowdModel model(opt);
  TCrowdState cold = model.Fit(w.world.schema, w.answers);
  ASSERT_LT(cold.em_iterations, opt.max_em_iterations) << "cold fit capped";

  TCrowdWarmStart warm = TCrowdWarmStart::From(cold);
  TCrowdState again = model.Fit(w.world.schema, w.answers, nullptr, &warm);
  EXPECT_LE(again.em_iterations, 2);
  testing::ExpectTablesMatch(w.world.schema,
                             TCrowdModel::StateToResult(again).estimated_truth,
                             TCrowdModel::StateToResult(cold).estimated_truth,
                             1e-6);
  for (size_t k = 0; k < cold.posteriors.size(); ++k) {
    const CellPosterior& a = again.posteriors[k];
    const CellPosterior& c = cold.posteriors[k];
    ASSERT_EQ(a.probs.size(), c.probs.size());
    for (size_t z = 0; z < c.probs.size(); ++z) {
      EXPECT_NEAR(a.probs[z], c.probs[z], 1e-6) << "cell " << k;
    }
  }
}

TEST(WarmStart, StartsFromThePreviousParameters) {
  SimWorld w(82, /*answers_per_task=*/3);
  TCrowdModel model(TCrowdOptions::Fast());
  TCrowdState previous = model.Fit(w.world.schema, w.answers);

  // A worker the previous fit never saw joins the log.
  const WorkerId newcomer = 777;
  ASSERT_EQ(previous.worker_phi.count(newcomer), 0u);
  AnswerSet grown = w.answers;
  grown.Add(newcomer, CellRef{0, 0}, w.world.truth.at(0, 0));

  // With no EM iteration the fit exports its starting point.
  TCrowdOptions start_only = TCrowdOptions::Fast();
  start_only.max_em_iterations = 0;
  TCrowdModel probe(start_only);
  TCrowdWarmStart warm = TCrowdWarmStart::From(previous);
  warm.default_phi = 0.37;
  TCrowdState start = probe.Fit(w.world.schema, grown, nullptr, &warm);

  EXPECT_NEAR(start.worker_phi.at(newcomer), 0.37, 1e-12);
  for (const auto& [worker, phi] : previous.worker_phi) {
    EXPECT_NEAR(start.worker_phi.at(worker), phi, 1e-12 * phi);
  }
  for (int i = 0; i < previous.num_rows; ++i) {
    EXPECT_NEAR(start.row_difficulty[i], previous.row_difficulty[i], 1e-12);
  }
  for (int j = 0; j < previous.num_cols; ++j) {
    EXPECT_NEAR(start.col_difficulty[j], previous.col_difficulty[j], 1e-12);
  }

  // Cold, the same probe starts every worker at initial_phi.
  TCrowdState cold_start = probe.Fit(w.world.schema, grown);
  EXPECT_EQ(cold_start.worker_phi.at(newcomer), start_only.initial_phi);
}

/// Exposes the fitted state of the policy under test.
class ProbedStructurePolicy : public StructureAwarePolicy {
 public:
  using StructureAwarePolicy::StructureAwarePolicy;
  using InherentGainPolicy::state;
};

TEST(WarmStart, StructurePolicyChainIsDeterministicAndCheaper) {
  SimWorld w(83, /*answers_per_task=*/1);
  const Schema& schema = w.world.schema;
  ProbedStructurePolicy a(TCrowdOptions::Fast());
  ProbedStructurePolicy b(TCrowdOptions::Fast());
  TCrowdModel cold_model(TCrowdOptions::Fast());
  a.Refresh(schema, w.answers);
  b.Refresh(schema, w.answers);

  constexpr int kRefreshEvery = 32;
  int since_refresh = 0, refreshes = 0;
  int warm_iterations = 0, cold_iterations = 0;
  for (int arrival = 0; arrival < 240; ++arrival) {
    WorkerId worker = w.crowd.NextWorker();
    std::vector<CellRef> picks_a = a.SelectTasks(schema, w.answers, worker, 2);
    std::vector<CellRef> picks_b = b.SelectTasks(schema, w.answers, worker, 2);
    ASSERT_EQ(picks_a.size(), picks_b.size()) << "arrival " << arrival;
    for (size_t n = 0; n < picks_a.size(); ++n) {
      ASSERT_EQ(picks_a[n].row, picks_b[n].row) << "arrival " << arrival;
      ASSERT_EQ(picks_a[n].col, picks_b[n].col) << "arrival " << arrival;
    }
    for (const CellRef& cell : picks_a) {
      Answer answer{worker, cell, w.crowd.Answer(worker, cell)};
      w.answers.Add(answer);
      a.Observe(schema, w.answers, answer);
      b.Observe(schema, w.answers, answer);
      ++since_refresh;
    }
    if (since_refresh >= kRefreshEvery) {
      a.Refresh(schema, w.answers);
      b.Refresh(schema, w.answers);
      since_refresh = 0;
      ++refreshes;
      EXPECT_EQ(a.state().em_iterations, b.state().em_iterations);
      warm_iterations += a.state().em_iterations;
      cold_iterations += cold_model.Fit(schema, w.answers).em_iterations;
    }
  }
  ASSERT_GE(refreshes, 10);
  EXPECT_LT(warm_iterations, cold_iterations);
}

TEST(WarmStart, FinalizeAfterWarmRefreshesMatchesBatchBitForBit) {
  SimWorld w(84, /*answers_per_task=*/4);
  service::InferenceArgs args;
  args.method = "tcrowd";
  args.tcrowd_options = TCrowdOptions::Fast();
  args.staleness_threshold = 96;
  args.min_answers_for_fit = 8;
  args.num_shards = 2;
  ThreadPool pool(2);
  service::IncrementalInferenceEngine engine(
      w.world.schema, w.world.truth.num_rows(), args, &pool);
  const std::vector<Answer>& all = w.answers.answers();
  for (size_t k = 0; k < all.size(); ++k) {
    engine.SubmitAnswer(all[k]);
    // Let a refresh install now and then so later ones warm-start from it
    // while submits keep racing the copy.
    if (k % 200 == 199) engine.WaitForRefresh();
  }
  engine.WaitForRefresh();
  ASSERT_GE(engine.refresh_count(), 3);

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected =
      testing::InferOnShards(batch, w.world.schema, engine.SnapshotAnswers(),
                             engine.args().num_shards);
  EXPECT_EQ(finalized.iterations, expected.iterations);
  ASSERT_EQ(finalized.posteriors.size(), expected.posteriors.size());
  for (size_t k = 0; k < expected.posteriors.size(); ++k) {
    const CellPosterior& f = finalized.posteriors[k];
    const CellPosterior& e = expected.posteriors[k];
    EXPECT_EQ(f.mean, e.mean) << "cell " << k;
    EXPECT_EQ(f.variance, e.variance) << "cell " << k;
    EXPECT_EQ(f.probs, e.probs) << "cell " << k;
  }
}

}  // namespace
}  // namespace tcrowd
