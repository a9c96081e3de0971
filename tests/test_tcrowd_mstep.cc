// Tests for the T-Crowd M-step: block-coordinate Newton ascent on Q.
#include "inference/tcrowd_mstep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "inference/answer_segment.h"
#include "inference/em_executor.h"
#include "inference/tcrowd_model.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

/// A mixed categorical/continuous world plus three spammers who answer
/// every cell uniformly at random.
struct SpammedWorld {
  testing::SimWorld sim;
  AnswerSet answers;

  explicit SpammedWorld(uint64_t seed,
                        sim::TableGeneratorOptions topt =
                            testing::SimWorld::DefaultTable())
      : sim(seed, 3, topt), answers(sim.answers) {
    Rng rng(seed + 7);
    const Schema& schema = sim.world.schema;
    for (WorkerId spammer = 900; spammer < 903; ++spammer) {
      for (int i = 0; i < answers.num_rows(); ++i) {
        for (int j = 0; j < answers.num_cols(); ++j) {
          const ColumnSpec& col = schema.column(j);
          answers.Add(spammer, CellRef{i, j},
                      col.type == ColumnType::kCategorical
                          ? Value::Categorical(
                                rng.UniformInt(0, col.num_labels() - 1))
                          : Value::Continuous(
                                rng.Uniform(col.min_value, col.max_value)));
        }
      }
    }
  }
  const Schema& schema() const { return sim.world.schema; }
};

ParamLayout LayoutOf(const TCrowdState& state,
                     const AnswerMatrixSnapshot& snap) {
  ParamLayout layout;
  layout.num_rows = state.num_rows;
  layout.num_cols = state.num_cols;
  layout.num_workers = snap.num_workers();
  layout.with_alpha = state.options.estimate_row_difficulty;
  layout.with_beta = state.options.estimate_col_difficulty;
  return layout;
}

/// The log-parameters a fitted state was exported from.
std::vector<double> LogParams(const TCrowdState& state,
                              const AnswerMatrixSnapshot& snap,
                              const ParamLayout& layout) {
  std::vector<double> p(layout.size());
  for (int i = 0; i < layout.num_rows; ++i) {
    p[layout.alpha_offset() + i] = std::log(state.row_difficulty[i]);
  }
  for (int j = 0; j < layout.num_cols; ++j) {
    p[layout.beta_offset() + j] = std::log(state.col_difficulty[j]);
  }
  for (int w = 0; w < layout.num_workers; ++w) {
    p[layout.phi_offset() + w] = std::log(state.WorkerPhi(snap.worker_ids[w]));
  }
  return p;
}

/// Posteriors and parameters after `em_iterations` EM iterations: the
/// starting point of the next M-step.
TCrowdState StateAfter(const Schema& schema, const AnswerMatrixSnapshot& snap,
                       int em_iterations, TCrowdOptions opt = {}) {
  opt.max_em_iterations = em_iterations;
  opt.param_tolerance = 0.0;
  return TCrowdModel(opt).Fit(schema, snap, nullptr);
}

TEST(TCrowdMStep, QNeverDecreasesAcrossMSteps) {
  for (uint64_t seed : {1301u, 1302u, 1303u}) {
    SpammedWorld w(seed);
    TCrowdModel model;
    AnswerMatrixSnapshot snap = model.BatchSnapshot(w.schema(), w.answers);
    for (int iters : {0, 1, 3, 8}) {
      for (int sweeps : {1, 2, 4}) {
        TCrowdState state = StateAfter(w.schema(), snap, iters);
        ParamLayout layout = LayoutOf(state, snap);
        std::vector<double> params = LogParams(state, snap, layout);
        EmExecutor exec(1);
        TCrowdMStep mstep(snap, state, layout, &exec);
        std::vector<double> gh;
        double before = mstep.Evaluate(params, &gh);
        double after = mstep.Maximize(sweeps, &params);
        EXPECT_GE(after, before)
            << "seed " << seed << " iters " << iters << " sweeps " << sweeps;
        // The returned value is Q at the returned point.
        EXPECT_EQ(after, mstep.Evaluate(params, &gh));
      }
    }
  }
}

TEST(TCrowdMStep, NewtonStepsBeatTheStartByAWideMargin) {
  // From the neutral initialization the first M-step has a lot to gain;
  // one sweep must capture it, not stall in halvings.
  SpammedWorld w(1304);
  TCrowdModel model;
  AnswerMatrixSnapshot snap = model.BatchSnapshot(w.schema(), w.answers);
  TCrowdState state = StateAfter(w.schema(), snap, 0);
  ParamLayout layout = LayoutOf(state, snap);
  std::vector<double> params = LogParams(state, snap, layout);
  EmExecutor exec(1);
  TCrowdMStep mstep(snap, state, layout, &exec);
  std::vector<double> gh;
  double before = mstep.Evaluate(params, &gh);
  double after = mstep.Maximize(1, &params);
  EXPECT_GT(after - before, 10.0);
  // One pass at the start plus one per block: no halving was needed.
  EXPECT_EQ(mstep.passes(), 1 + 1 + 3);
}

/// Q with coordinate k moved by `delta`.
double QAt(TCrowdMStep* mstep, std::vector<double> params, int k,
           double delta) {
  params[k] += delta;
  std::vector<double> gh;
  return mstep->Evaluate(params, &gh);
}

TEST(TCrowdMStep, SafeguardHalvesAnOvershootingBlockStep) {
  // One precise worker (ln phi = -3.3) whose ten labels the posteriors
  // call certainly right. The prior pulls ln phi up, but the Fisher
  // curvature understates how fast ln q falls there: the full (clipped)
  // Newton step lowers Q, and the safeguard must halve it until Q rises.
  const int kRows = 10;
  Schema schema({Schema::MakeCategorical("c", {"a", "b"})});
  AnswerSet answers(kRows, 1);
  for (int i = 0; i < kRows; ++i) {
    answers.Add(0, CellRef{i, 0}, Value::Categorical(0));
  }
  TCrowdOptions opt;
  opt.estimate_row_difficulty = false;
  opt.estimate_col_difficulty = false;
  TCrowdModel model(opt);
  AnswerMatrixSnapshot snap = model.BatchSnapshot(schema, answers);
  TCrowdState state;
  state.schema = schema;
  state.num_rows = kRows;
  state.num_cols = 1;
  state.options = opt;
  state.col_center = snap.col_center;
  state.col_scale = snap.col_scale;
  state.column_active = snap.column_active;
  CellPosterior post;
  post.type = ColumnType::kCategorical;
  post.probs = {1.0, 0.0};
  state.posteriors.assign(kRows, post);

  ParamLayout layout = LayoutOf(state, snap);
  ASSERT_EQ(layout.size(), 1);  // ln phi_0
  std::vector<double> params = {-3.3};
  EmExecutor exec(1);
  TCrowdMStep mstep(snap, state, layout, &exec);
  std::vector<double> gh;
  const double before = mstep.Evaluate(params, &gh);
  const double newton = std::clamp(-gh[0] / gh[1], -1.0, 1.0);
  ASSERT_LT(QAt(&mstep, params, 0, newton), before) << "premise";

  const int passes_before = mstep.passes();
  const double after = mstep.Maximize(1, &params);
  EXPECT_GT(after, before);
  // One pass at the start, one for the full step, one per halving.
  EXPECT_GT(mstep.passes() - passes_before, 2);
  EXPECT_GT(params[0], -3.3);
  EXPECT_LT(params[0], -3.3 + newton);
}

/// Some coordinates of each block: the first, a middle and the last one.
std::vector<int> SampleCoordinates(const ParamLayout& layout) {
  std::vector<int> ks;
  auto take = [&](int begin, int size) {
    if (size == 0) return;
    ks.push_back(begin);
    ks.push_back(begin + size / 2);
    ks.push_back(begin + size - 1);
  };
  take(layout.alpha_offset(), layout.with_alpha ? layout.num_rows : 0);
  take(layout.beta_offset(), layout.with_beta ? layout.num_cols : 0);
  take(layout.phi_offset(), layout.num_workers);
  return ks;
}

TEST(TCrowdMStep, GradientAndContinuousCurvatureMatchFiniteDifferences) {
  // Continuous answers carry their exact curvature, so on a continuous-only
  // world both derivatives must match central differences of Q.
  SpammedWorld w(1305);
  TCrowdModel model = TCrowdModel::OnlyContinuous(w.schema());
  AnswerMatrixSnapshot snap = model.BatchSnapshot(w.schema(), w.answers);
  TCrowdOptions opt = model.options();
  opt.max_em_iterations = 2;
  TCrowdState state = TCrowdModel(opt).Fit(w.schema(), snap, nullptr);
  ParamLayout layout = LayoutOf(state, snap);
  std::vector<double> params = LogParams(state, snap, layout);
  // Off the fitted point, so the gradient is not ~0.
  for (size_t k = 0; k < params.size(); ++k) params[k] += 0.1 * (k % 3);
  EmExecutor exec(1);
  TCrowdMStep mstep(snap, state, layout, &exec);
  std::vector<double> gh;
  const double q0 = mstep.Evaluate(params, &gh);
  const int n = layout.size();
  for (int k : SampleCoordinates(layout)) {
    const double h = 1e-3;
    double up = QAt(&mstep, params, k, h);
    double down = QAt(&mstep, params, k, -h);
    double fd_grad = (up - down) / (2 * h);
    double fd_curv = (up - 2 * q0 + down) / (h * h);
    EXPECT_NEAR(gh[k], fd_grad, 1e-4 * (1.0 + std::fabs(fd_grad)))
        << "coordinate " << k;
    EXPECT_NEAR(gh[n + k], fd_curv, 1e-3 * (1.0 + std::fabs(fd_curv)))
        << "coordinate " << k;
  }
}

TEST(TCrowdMStep, GradientAndFisherCurvatureOnMixedWorld) {
  // Categorical answers use the Fisher curvature: never positive, and of
  // the same sign as the observed curvature at a fitted point.
  SpammedWorld w(1306);
  TCrowdModel model;
  AnswerMatrixSnapshot snap = model.BatchSnapshot(w.schema(), w.answers);
  TCrowdState state = StateAfter(w.schema(), snap, 6);
  ParamLayout layout = LayoutOf(state, snap);
  std::vector<double> params = LogParams(state, snap, layout);
  EmExecutor exec(1);
  TCrowdMStep mstep(snap, state, layout, &exec);
  std::vector<double> gh;
  const double q0 = mstep.Evaluate(params, &gh);
  const int n = layout.size();
  for (int k = 0; k < n; ++k) EXPECT_LT(gh[n + k], 0.0) << "coordinate " << k;
  for (int k : SampleCoordinates(layout)) {
    const double h = 1e-3;
    double up = QAt(&mstep, params, k, h);
    double down = QAt(&mstep, params, k, -h);
    double fd_grad = (up - down) / (2 * h);
    double fd_curv = (up - 2 * q0 + down) / (h * h);
    EXPECT_NEAR(gh[k], fd_grad, 1e-4 * (1.0 + std::fabs(fd_grad)))
        << "coordinate " << k;
    EXPECT_LT(fd_curv, 0.0) << "coordinate " << k;
  }
}

TEST(TCrowdMStep, CategoricalFisherCurvatureAgreesInSign) {
  SpammedWorld w(1307);
  TCrowdModel model = TCrowdModel::OnlyCategorical(w.schema());
  AnswerMatrixSnapshot snap = model.BatchSnapshot(w.schema(), w.answers);
  TCrowdOptions opt = model.options();
  opt.max_em_iterations = 6;
  TCrowdState state = TCrowdModel(opt).Fit(w.schema(), snap, nullptr);
  ParamLayout layout = LayoutOf(state, snap);
  std::vector<double> params = LogParams(state, snap, layout);
  EmExecutor exec(1);
  TCrowdMStep mstep(snap, state, layout, &exec);
  std::vector<double> gh;
  const double q0 = mstep.Evaluate(params, &gh);
  const int n = layout.size();
  for (int k : SampleCoordinates(layout)) {
    const double h = 1e-3;
    double fd_curv =
        (QAt(&mstep, params, k, h) - 2 * q0 + QAt(&mstep, params, k, -h)) /
        (h * h);
    EXPECT_LT(gh[n + k], 0.0) << "coordinate " << k;
    EXPECT_LT(fd_curv, 0.0) << "coordinate " << k;
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(TCrowdMStep, ShardedFitsAreBitReproducibleAndAgreeAcrossShardCounts) {
  sim::TableGeneratorOptions big = testing::SimWorld::DefaultTable();
  big.num_rows = 160;  // enough answers that the M-step pass shards
  SpammedWorld w(1308, big);
  ASSERT_GE(w.answers.size(), EmExecutor::kMinItemsForSharding * 2);
  TCrowdModel model;
  AnswerMatrixSnapshot snap = model.BatchSnapshot(w.schema(), w.answers);
  std::vector<TCrowdState> fits;
  for (int shards : {1, 2, 4}) {
    EmExecutor first_exec(shards), second_exec(shards);
    TCrowdState first = model.Fit(w.schema(), snap, &first_exec);
    TCrowdState second = model.Fit(w.schema(), snap, &second_exec);
    ASSERT_EQ(first.em_iterations, second.em_iterations);
    for (size_t k = 0; k < first.posteriors.size(); ++k) {
      ASSERT_TRUE(SameBits(first.posteriors[k].mean,
                           second.posteriors[k].mean))
          << shards << " shards, cell " << k;
    }
    for (const auto& [worker, phi] : first.worker_phi) {
      ASSERT_TRUE(SameBits(second.worker_phi.at(worker), phi))
          << shards << " shards, worker " << worker;
    }
    for (size_t i = 0; i < first.objective_trace.size(); ++i) {
      ASSERT_TRUE(SameBits(first.objective_trace[i],
                           second.objective_trace[i]));
    }
    fits.push_back(std::move(first));
  }
  // Across shard counts only the reduction order differs.
  for (size_t f = 1; f < fits.size(); ++f) {
    for (const auto& [worker, phi] : fits[0].worker_phi) {
      EXPECT_NEAR(fits[f].worker_phi.at(worker), phi, 1e-6 * (1.0 + phi));
    }
    for (size_t k = 0; k < fits[0].posteriors.size(); ++k) {
      const CellPosterior& a = fits[0].posteriors[k];
      const CellPosterior& b = fits[f].posteriors[k];
      EXPECT_NEAR(a.mean, b.mean, 1e-6 * (1.0 + std::fabs(a.mean)));
      ASSERT_EQ(a.probs.size(), b.probs.size());
      for (size_t l = 0; l < a.probs.size(); ++l) {
        EXPECT_NEAR(a.probs[l], b.probs[l], 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace tcrowd
