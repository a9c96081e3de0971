// The gain policies score leases from a cell table of the installed state
// (CellGainTable) that Refresh() rebuilds and Observe() updates one cell
// at a time. At every point of a run, including a failed background fit
// and a fit whose posteriors hold NaN, the table's gains must equal
// InformationGain's fresh computation on the same state bit for bit, and
// top-k selection must equal repeated exclusion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "assignment/info_gain.h"
#include "assignment/policies.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

using testing::SimWorld;

/// A structure-aware policy with an injected fit and its state exposed.
class ProbedStructurePolicy : public StructureAwarePolicy {
 public:
  explicit ProbedStructurePolicy(BackgroundRefit::FitFn fit)
      : StructureAwarePolicy(std::move(fit), TCrowdOptions::Fast(),
                             ErrorCorrelationModel::Options()) {}
  using InherentGainPolicy::state;
};

bool Same(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

/// The structure-aware gain computed afresh: the worker's row evidence
/// rescanned from the answer log and InformationGain on the raw state.
double FreshStructureGain(const ProbedStructurePolicy& policy,
                          const AnswerSet& answers, WorkerId worker,
                          CellRef cell) {
  const TCrowdState& state = policy.state();
  InformationGain ig(&state);
  std::vector<ObservedError> evidence =
      ErrorCorrelationModel::ObservedErrorsInRow(state, answers, worker,
                                                 cell.row, cell.col);
  if (evidence.empty()) return ig.InherentGain(answers, worker, cell);
  if (state.schema.column(cell.col).type == ColumnType::kCategorical) {
    double q = policy.correlation().PredictCorrectProb(cell.col, evidence);
    return ig.GainWithAnswerModel(answers, worker, cell, q, -1.0);
  }
  bool ok = false;
  math::Normal err =
      policy.correlation().PredictErrorDist(cell.col, evidence, &ok);
  if (!ok) return ig.InherentGain(answers, worker, cell);
  return ig.GainWithAnswerModel(answers, worker, cell, -1.0,
                                err.variance() + err.mean() * err.mean());
}

/// Repeated exclusion: k rounds of std::max_element (first of the maxima,
/// NaN as it falls) over the candidates not yet picked.
std::vector<CellRef> RepeatedExclusion(
    const AnswerSet& answers, WorkerId worker, std::vector<CellRef> exclude,
    int k, const std::function<double(CellRef)>& score) {
  std::vector<CellRef> picked;
  for (int n = 0; n < k; ++n) {
    std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
    if (candidates.empty()) break;
    std::vector<double> scores;
    for (const CellRef& c : candidates) scores.push_back(score(c));
    CellRef best = candidates[std::max_element(scores.begin(), scores.end()) -
                              scores.begin()];
    picked.push_back(best);
    exclude.push_back(best);
  }
  return picked;
}

/// Counts of what the checks exercised.
struct Seen {
  int nan_scores = 0;
  int tied_picks = 0;
};

void ExpectConsistent(ProbedStructurePolicy& policy, const Schema& schema,
                      const AnswerSet& answers, uint64_t seed,
                      const std::string& where, Seen* seen) {
  const TCrowdState& state = policy.state();
  InformationGain ig(&state);
  std::vector<WorkerId> workers = answers.Workers();
  workers.resize(std::min<size_t>(workers.size(), 3));
  workers.push_back(7777);  // a worker with no history
  Rng rng(seed);
  for (WorkerId u : workers) {
    for (int i = 0; i < answers.num_rows(); ++i) {
      for (int j = 0; j < answers.num_cols(); ++j) {
        const CellRef cell{i, j};
        double table = policy.Gain(answers, u, cell);
        double fresh = ig.InherentGain(answers, u, cell);
        ASSERT_TRUE(Same(table, fresh))
            << where << ": Gain worker " << u << " cell (" << i << "," << j
            << ") " << table << " vs " << fresh;
        double structure = policy.StructureGain(answers, u, cell);
        double fresh_structure = FreshStructureGain(policy, answers, u, cell);
        ASSERT_TRUE(Same(structure, fresh_structure))
            << where << ": StructureGain worker " << u << " cell (" << i
            << "," << j << ") " << structure << " vs " << fresh_structure;
        seen->nan_scores += std::isnan(structure);
      }
    }
    std::vector<CellRef> exclude;
    for (int i = 0; i < answers.num_rows(); ++i) {
      for (int j = 0; j < answers.num_cols(); ++j) {
        if (rng.Bernoulli(0.1)) exclude.push_back(CellRef{i, j});
      }
    }
    int k = rng.UniformInt(1, 8);
    auto fresh_score = [&](CellRef c) {
      return FreshStructureGain(policy, answers, u, c);
    };
    std::vector<CellRef> top =
        policy.SelectTasksExcluding(schema, answers, u, exclude, k);
    std::vector<CellRef> repeated =
        RepeatedExclusion(answers, u, exclude, k, fresh_score);
    ASSERT_EQ(top, repeated) << where << ": top-" << k << " worker " << u;
    for (size_t n = 1; n < top.size(); ++n) {
      seen->tied_picks += fresh_score(top[n]) == fresh_score(top[n - 1]);
    }
  }
}

TEST(CellGainTable, MatchesFreshGainThroughRefreshObserveAndFailedFit) {
  SimWorld w(171, /*answers_per_task=*/2);
  const Schema& schema = w.world.schema;
  // The bottom half of the table starts with no answers, so its cells tie
  // within each column until answers arrive.
  const int rows = w.answers.num_rows();
  AnswerSet answers(rows, w.answers.num_cols());
  for (const Answer& a : w.answers.answers()) {
    if (a.cell.row < rows / 2) answers.Add(a);
  }

  // Fit 2 comes back with NaN posterior variances in a few continuous
  // cells (NaN scores); fit 3 fails, so its install keeps the state.
  TCrowdModel model(TCrowdOptions::Fast());
  int calls = 0;
  const int cont_col = schema.ContinuousColumns().front();
  ProbedStructurePolicy policy(
      [&](const Schema& s, const AnswerMatrixSnapshot& snapshot,
          const TCrowdWarmStart* warm) {
        ++calls;
        if (calls == 3) throw std::runtime_error("injected fit failure");
        TCrowdState state = model.Fit(s, snapshot, nullptr, warm);
        if (calls == 2) {
          for (int i = 0; i < state.num_rows; i += 7) {
            state.posteriors[static_cast<size_t>(i) * state.num_cols +
                             cont_col]
                .variance = std::nan("");
          }
        }
        return state;
      });

  Seen seen;
  policy.Refresh(schema, answers);
  ExpectConsistent(policy, schema, answers, 1, "cold fit", &seen);
  constexpr int kRefreshEvery = 12;
  int since_refresh = 0, refreshes = 1, observed = 0;
  for (int arrival = 0; arrival < 60; ++arrival) {
    WorkerId worker = w.crowd.NextWorker();
    for (const CellRef& cell : policy.SelectTasks(schema, answers, worker,
                                                  2)) {
      Answer answer{worker, cell, w.crowd.Answer(worker, cell)};
      answers.Add(answer);
      policy.Observe(schema, answers, answer);
      ++since_refresh;
      if (++observed % 5 == 0) {
        ExpectConsistent(policy, schema, answers, observed,
                         "after observe " + std::to_string(observed), &seen);
      }
    }
    if (since_refresh >= kRefreshEvery) {
      policy.Refresh(schema, answers);
      ++refreshes;
      since_refresh = 0;
      ExpectConsistent(policy, schema, answers, 1000 + refreshes,
                       "after refresh " + std::to_string(refreshes), &seen);
    }
  }
  ASSERT_GE(refreshes, 4) << "the failed fit was never installed";
  EXPECT_GT(seen.nan_scores, 0) << "no NaN score was exercised";
  EXPECT_GT(seen.tied_picks, 0) << "no tie was exercised";
}

TEST(CellGainTable, UpdateMatchesRebuildAfterAnIncrementalAnswer) {
  SimWorld w(172, /*answers_per_task=*/2);
  TCrowdState state = TCrowdModel(TCrowdOptions::Fast())
                          .Fit(w.world.schema, w.answers);
  CellGainTable table;
  table.Rebuild(state);
  WorkerId worker = w.answers.Workers().front();
  for (int j = 0; j < state.num_cols; ++j) {
    CellRef cell{3, j};
    ApplyIncrementalAnswer(Answer{worker, cell, w.crowd.Answer(worker, cell)},
                           &state);
    table.Update(state, cell);
  }
  CellGainTable rebuilt;
  rebuilt.Rebuild(state);
  for (int i = 0; i < state.num_rows; ++i) {
    for (int j = 0; j < state.num_cols; ++j) {
      const CellGainTerms& a = table.terms(CellRef{i, j});
      const CellGainTerms& b = rebuilt.terms(CellRef{i, j});
      ASSERT_EQ(a.entropy, b.entropy) << i << "," << j;
      ASSERT_EQ(a.sum_plogp, b.sum_plogp) << i << "," << j;
      ASSERT_EQ(a.variance, b.variance) << i << "," << j;
      ASSERT_EQ(a.difficulty, b.difficulty) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace tcrowd
