#include "assignment/info_gain.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "inference/tcrowd_model.h"
#include "math/special_functions.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

class InfoGainTest : public ::testing::Test {
 protected:
  InfoGainTest() : world_(901, 3) {
    state_ = TCrowdModel().Fit(world_.world.schema, world_.answers);
  }

  testing::SimWorld world_;
  TCrowdState state_;
};

TEST_F(InfoGainTest, GainIsNonNegativeEverywhere) {
  InformationGain ig(&state_);
  WorkerId u = world_.answers.Workers().front();
  for (const CellRef& cell : world_.world.truth.AllCells()) {
    EXPECT_GE(ig.InherentGain(world_.answers, u, cell), -1e-9)
        << "cell (" << cell.row << "," << cell.col << ")";
  }
}

TEST_F(InfoGainTest, ContinuousGainMatchesClosedForm) {
  InformationGain ig(&state_);
  WorkerId u = world_.answers.Workers().front();
  int j = world_.world.schema.ContinuousColumns().front();
  CellRef cell{0, j};
  double var = state_.StdPosteriorVariance(0, j);
  double s = state_.AnswerVarianceStd(u, 0, j);
  double expected = 0.5 * std::log(var / (1.0 / (1.0 / var + 1.0 / s)));
  EXPECT_NEAR(ig.InherentGain(world_.answers, u, cell), expected, 1e-12);
}

TEST_F(InfoGainTest, BetterWorkerYieldsMoreGain) {
  // Synthesize two worker qualities via the answer-model override.
  InformationGain ig(&state_);
  WorkerId u = world_.answers.Workers().front();
  int jc = world_.world.schema.CategoricalColumns().front();
  int jx = world_.world.schema.ContinuousColumns().front();
  CellRef cat{1, jc}, cont{1, jx};
  // Categorical: higher correctness probability -> more expected gain.
  double g_good = ig.GainWithAnswerModel(world_.answers, u, cat, 0.95, -1.0);
  double g_poor = ig.GainWithAnswerModel(world_.answers, u, cat, 0.4, -1.0);
  EXPECT_GT(g_good, g_poor);
  // Continuous: lower answer variance -> more gain.
  double g_precise = ig.GainWithAnswerModel(world_.answers, u, cont, -1.0, 0.05);
  double g_noisy = ig.GainWithAnswerModel(world_.answers, u, cont, -1.0, 5.0);
  EXPECT_GT(g_precise, g_noisy);
}

TEST_F(InfoGainTest, SettledCellYieldsLessGainThanContestedCell) {
  // A cell with many consistent answers has a sharp posterior; adding one
  // more answer gains little compared to a sparse cell.
  int j = world_.world.schema.ContinuousColumns().front();
  // Find the cells with min/max posterior variance in column j.
  int sharp_row = 0, flat_row = 0;
  double vmin = 1e18, vmax = -1.0;
  for (int i = 0; i < world_.world.truth.num_rows(); ++i) {
    double v = state_.StdPosteriorVariance(i, j);
    if (v < vmin) { vmin = v; sharp_row = i; }
    if (v > vmax) { vmax = v; flat_row = i; }
  }
  if (vmax <= vmin * 1.01) GTEST_SKIP() << "no variance spread";
  InformationGain ig(&state_);
  WorkerId u = world_.answers.Workers().front();
  // Same worker/same column/difficulty-matched comparison via override.
  double g_sharp = ig.GainWithAnswerModel(world_.answers, u,
                                          CellRef{sharp_row, j}, -1.0, 0.5);
  double g_flat = ig.GainWithAnswerModel(world_.answers, u,
                                         CellRef{flat_row, j}, -1.0, 0.5);
  EXPECT_GT(g_flat, g_sharp);
}

TEST_F(InfoGainTest, CategoricalGainBoundedByCurrentEntropy) {
  InformationGain ig(&state_);
  WorkerId u = world_.answers.Workers().front();
  for (int j : world_.world.schema.CategoricalColumns()) {
    for (int i = 0; i < world_.world.truth.num_rows(); ++i) {
      double h = state_.posterior(i, j).Entropy();
      double g = ig.InherentGain(world_.answers, u, CellRef{i, j});
      EXPECT_LE(g, h + 1e-9);
    }
  }
}

TEST_F(InfoGainTest, DeterministicAndRepeatable) {
  InformationGain ig(&state_);
  WorkerId u = world_.answers.Workers().front();
  CellRef cell{2, 1};
  EXPECT_DOUBLE_EQ(ig.InherentGain(world_.answers, u, cell),
                   ig.InherentGain(world_.answers, u, cell));
}

TEST_F(InfoGainTest, GainComparableAcrossDatatypes) {
  // The paper's core argument for delta entropy: gains for categorical and
  // continuous cells must live on the same scale (within an order of
  // magnitude), unlike raw entropies which differ by the ln(scale) offset.
  InformationGain ig(&state_);
  WorkerId u = world_.answers.Workers().front();
  double max_cat = 0.0, max_cont = 0.0;
  for (int i = 0; i < world_.world.truth.num_rows(); ++i) {
    for (int j : world_.world.schema.CategoricalColumns()) {
      max_cat = std::max(max_cat,
                         ig.InherentGain(world_.answers, u, CellRef{i, j}));
    }
    for (int j : world_.world.schema.ContinuousColumns()) {
      max_cont = std::max(max_cont,
                          ig.InherentGain(world_.answers, u, CellRef{i, j}));
    }
  }
  EXPECT_GT(max_cat, 0.0);
  EXPECT_GT(max_cont, 0.0);
  EXPECT_LT(max_cat / max_cont, 30.0);
  EXPECT_LT(max_cont / max_cat, 30.0);
}

TEST_F(InfoGainTest, UnknownWorkerUsesDefaultPhi) {
  InformationGain ig(&state_);
  CellRef cell{0, 0};
  double g = ig.InherentGain(world_.answers, 424242, cell);
  EXPECT_GE(g, 0.0);
  EXPECT_TRUE(std::isfinite(g));
}

/// The naive O(L^2) expectation the closed form replaces: for every
/// hypothetical answer y, one Bayes update of the posterior and its entropy,
/// weighted by the predicted probability of answering y.
double NaiveCategoricalGain(const std::vector<double>& p, double q) {
  const int L = static_cast<int>(p.size());
  const double wrong = (1.0 - q) / std::max(1, L - 1);
  auto entropy = [](const std::vector<double>& dist) {
    double h = 0.0;
    for (double x : dist) {
      if (x > 0.0) h -= x * std::log(x);
    }
    return h;
  };
  double expected = 0.0;
  for (int y = 0; y < L; ++y) {
    std::vector<double> post(L);
    double t = 0.0;
    for (int z = 0; z < L; ++z) {
      post[z] = p[z] * (z == y ? q : wrong);
      t += post[z];
    }
    if (t <= 0.0) continue;
    for (double& x : post) x /= t;
    expected += t * entropy(post);
  }
  return entropy(p) - expected;
}

/// A one-row state over categorical columns of the given label counts plus
/// one continuous column, with hand-set posteriors and parameters.
TCrowdState HandBuiltState(const std::vector<std::vector<double>>& posts,
                           double cont_variance) {
  std::vector<ColumnSpec> cols;
  for (size_t j = 0; j < posts.size(); ++j) {
    std::vector<std::string> labels;
    for (size_t z = 0; z < posts[j].size(); ++z) {
      labels.push_back("l" + std::to_string(z));
    }
    cols.push_back(Schema::MakeCategorical("c" + std::to_string(j), labels));
  }
  cols.push_back(Schema::MakeContinuous("x", 0.0, 10.0));
  TCrowdState state;
  state.schema = Schema(cols);
  state.num_rows = 1;
  state.num_cols = static_cast<int>(cols.size());
  state.row_difficulty = {1.3};
  for (int j = 0; j < state.num_cols; ++j) {
    state.col_difficulty.push_back(0.6 + 0.2 * j);
  }
  state.worker_phi = {{0, 0.4}, {1, 1e-6}, {2, 1e6}};
  state.col_center.assign(state.num_cols, 0.0);
  state.col_scale.assign(state.num_cols, 1.0);
  state.col_scale.back() = 2.5;
  state.column_active.assign(state.num_cols, true);
  for (const std::vector<double>& p : posts) {
    CellPosterior post;
    post.probs = p;
    state.posteriors.push_back(post);
  }
  CellPosterior cont;
  cont.type = ColumnType::kContinuous;
  cont.mean = 4.0;
  cont.variance = cont_variance;
  state.posteriors.push_back(cont);
  return state;
}

/// A normalized posterior over L labels with the labels in `zeros` at 0.
std::vector<double> Posterior(int L, uint64_t seed,
                              const std::vector<int>& zeros = {}) {
  Rng rng(seed);
  std::vector<double> p(L);
  double total = 0.0;
  for (int z = 0; z < L; ++z) {
    bool zero = std::find(zeros.begin(), zeros.end(), z) != zeros.end();
    p[z] = zero ? 0.0 : 0.01 + rng.Uniform();
    total += p[z];
  }
  for (double& x : p) x /= total;
  return p;
}

TEST(InfoGainOracle, CategoricalClosedFormMatchesNaiveExpectation) {
  const std::vector<std::vector<double>> posts = {
      Posterior(2, 1), Posterior(3, 2), Posterior(6, 3), Posterior(50, 4),
      // Zero-probability labels, including a one-hot posterior.
      Posterior(3, 5, {1}), Posterior(6, 6, {0, 2, 5}),
      Posterior(50, 7, {3, 9, 10, 11, 40, 49}), Posterior(6, 8, {0, 1, 2, 3, 5}),
  };
  TCrowdState state = HandBuiltState(posts, 3.0);
  InformationGain ig(&state);
  AnswerSet answers(1, state.num_cols);
  for (int j = 0; j < static_cast<int>(posts.size()); ++j) {
    const CellRef cell{0, j};
    const std::string where = "column " + std::to_string(j) + ", L=" +
                              std::to_string(posts[j].size());
    // Model-implied quality: a typical worker, one so precise that q^u_ij
    // sits at the upper ClampProb limit, and a near-random one.
    for (WorkerId u : {0, 1, 2}) {
      double q = state.CategoricalQuality(u, 0, j);
      EXPECT_NEAR(ig.InherentGain(answers, u, cell),
                  NaiveCategoricalGain(posts[j], q), 1e-12)
          << where << ", worker " << u;
    }
    EXPECT_EQ(state.CategoricalQuality(1, 0, j), 1.0 - math::kProbFloor);
    // correct_prob overrides, both ClampProb limits included.
    for (double cq : {0.0, 1e-13, 0.2, 0.5, 0.93, 1.0}) {
      EXPECT_NEAR(ig.GainWithAnswerModel(answers, 0, cell, cq, -1.0),
                  NaiveCategoricalGain(posts[j], math::ClampProb(cq)), 1e-12)
          << where << ", correct_prob " << cq;
    }
    // answer_variance_std only overrides continuous cells.
    EXPECT_EQ(ig.GainWithAnswerModel(answers, 0, cell, -1.0, 0.01),
              ig.InherentGain(answers, 0, cell))
        << where;
  }
}

TEST(InfoGainOracle, ContinuousClosedFormWithOverrides) {
  TCrowdState state = HandBuiltState({Posterior(3, 9)}, 3.0);
  InformationGain ig(&state);
  AnswerSet answers(1, state.num_cols);
  const int j = state.num_cols - 1;
  const CellRef cell{0, j};
  const double var = 3.0 / (2.5 * 2.5);
  auto closed = [&](double s) {
    return 0.5 * std::log(var / (1.0 / (1.0 / var + 1.0 / s)));
  };
  for (WorkerId u : {0, 1, 2}) {
    EXPECT_NEAR(ig.InherentGain(answers, u, cell),
                closed(state.AnswerVarianceStd(u, 0, j)), 1e-12);
  }
  for (double s : {0.0, 1e-14, 0.05, 1.0, 40.0}) {
    EXPECT_NEAR(ig.GainWithAnswerModel(answers, 0, cell, -1.0, s),
                closed(std::max(s, 1e-12)), 1e-12)
        << "answer_variance_std " << s;
  }
  // correct_prob only overrides categorical cells.
  EXPECT_EQ(ig.GainWithAnswerModel(answers, 0, cell, 0.9, -1.0),
            ig.InherentGain(answers, 0, cell));
}

}  // namespace
}  // namespace tcrowd
