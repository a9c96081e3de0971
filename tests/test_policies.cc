// Shared behavioural contract of every assignment policy, plus
// policy-specific behaviours.
#include "assignment/policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "test_helpers.h"

namespace tcrowd {
namespace {

using PolicyFactory = std::function<std::unique_ptr<AssignmentPolicy>()>;

struct PolicySpec {
  const char* label;
  PolicyFactory make;
};

TCrowdOptions FastOpts() { return TCrowdOptions::Fast(); }

const PolicySpec kPolicies[] = {
    {"Random",
     [] { return std::unique_ptr<AssignmentPolicy>(new RandomPolicy(1)); }},
    {"Looping",
     [] { return std::unique_ptr<AssignmentPolicy>(new LoopingPolicy()); }},
    {"Entropy",
     [] {
       return std::unique_ptr<AssignmentPolicy>(new EntropyPolicy(FastOpts()));
     }},
    {"InherentGain",
     [] {
       return std::unique_ptr<AssignmentPolicy>(
           new InherentGainPolicy(FastOpts()));
     }},
    {"StructureAware",
     [] {
       return std::unique_ptr<AssignmentPolicy>(
           new StructureAwarePolicy(FastOpts()));
     }},
    {"CDAS",
     [] { return std::unique_ptr<AssignmentPolicy>(new CdasPolicy(1)); }},
    {"AskIt",
     [] { return std::unique_ptr<AssignmentPolicy>(new AskItPolicy()); }},
};

class PolicyContract : public ::testing::TestWithParam<PolicySpec> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyContract,
                         ::testing::ValuesIn(kPolicies),
                         [](const ::testing::TestParamInfo<PolicySpec>& info) {
                           return info.param.label;
                         });

TEST_P(PolicyContract, NeverAssignsAlreadyAnsweredCell) {
  testing::SimWorld w(51, 2);
  auto policy = GetParam().make();
  policy->Refresh(w.world.schema, w.answers);
  for (WorkerId u : w.answers.Workers()) {
    CellRef cell;
    ASSERT_TRUE(policy->SelectTask(w.world.schema, w.answers, u, &cell));
    EXPECT_FALSE(w.answers.HasAnswered(u, cell)) << GetParam().label;
    EXPECT_GE(cell.row, 0);
    EXPECT_LT(cell.row, w.answers.num_rows());
    EXPECT_GE(cell.col, 0);
    EXPECT_LT(cell.col, w.answers.num_cols());
  }
}

TEST_P(PolicyContract, RespectsExclusionList) {
  testing::SimWorld w(52, 2);
  auto policy = GetParam().make();
  policy->Refresh(w.world.schema, w.answers);
  WorkerId u = w.answers.Workers().front();
  CellRef first;
  ASSERT_TRUE(policy->SelectTask(w.world.schema, w.answers, u, &first));
  CellRef second;
  ASSERT_TRUE(policy->SelectTaskExcluding(w.world.schema, w.answers, u,
                                          {first}, &second));
  EXPECT_FALSE(first == second) << GetParam().label;
}

TEST_P(PolicyContract, BatchSelectionIsDistinct) {
  testing::SimWorld w(53, 2);
  auto policy = GetParam().make();
  policy->Refresh(w.world.schema, w.answers);
  WorkerId u = w.answers.Workers().front();
  std::vector<CellRef> batch =
      policy->SelectTasks(w.world.schema, w.answers, u, 6);
  ASSERT_EQ(batch.size(), 6u) << GetParam().label;
  std::set<std::pair<int, int>> seen;
  for (const CellRef& c : batch) {
    EXPECT_TRUE(seen.emplace(c.row, c.col).second)
        << GetParam().label << " duplicated (" << c.row << "," << c.col << ")";
    EXPECT_FALSE(w.answers.HasAnswered(u, c));
  }
}

TEST_P(PolicyContract, ReturnsFalseWhenWorkerExhausted) {
  // Tiny 1x2 world answered entirely by worker 0.
  Schema schema({Schema::MakeCategorical("c", {"a", "b"}),
                 Schema::MakeContinuous("x", 0.0, 1.0)});
  AnswerSet answers(1, 2);
  answers.Add(0, CellRef{0, 0}, Value::Categorical(0));
  answers.Add(0, CellRef{0, 1}, Value::Continuous(0.5));
  answers.Add(1, CellRef{0, 0}, Value::Categorical(0));
  answers.Add(1, CellRef{0, 1}, Value::Continuous(0.4));
  auto policy = GetParam().make();
  policy->Refresh(schema, answers);
  CellRef cell;
  EXPECT_FALSE(policy->SelectTask(schema, answers, 0, &cell))
      << GetParam().label;
  // But a fresh worker can still be assigned.
  EXPECT_TRUE(policy->SelectTask(schema, answers, 7, &cell));
}

// ------------------------------ policy-specific behaviours ---------------

TEST(LoopingPolicy, CyclesThroughCells) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b"})});
  AnswerSet answers(3, 1);
  LoopingPolicy policy;
  policy.Refresh(schema, answers);
  CellRef c1, c2, c3, c4;
  ASSERT_TRUE(policy.SelectTask(schema, answers, 0, &c1));
  ASSERT_TRUE(policy.SelectTask(schema, answers, 0, &c2));
  ASSERT_TRUE(policy.SelectTask(schema, answers, 0, &c3));
  ASSERT_TRUE(policy.SelectTask(schema, answers, 0, &c4));
  EXPECT_EQ(c1.row, 0);
  EXPECT_EQ(c2.row, 1);
  EXPECT_EQ(c3.row, 2);
  EXPECT_EQ(c4.row, 0);  // wrapped around
}

TEST(EntropyPolicy, PrefersContinuousTasksFirst) {
  // The documented bias: differential entropy of wide-domain continuous
  // cells dwarfs Shannon entropy, so Entropy picks continuous tasks.
  testing::SimWorld w(54, 2);
  EntropyPolicy policy(FastOpts());
  policy.Refresh(w.world.schema, w.answers);
  WorkerId u = w.answers.Workers().front();
  int continuous_picks = 0;
  std::vector<CellRef> batch =
      policy.SelectTasks(w.world.schema, w.answers, u, 10);
  for (const CellRef& c : batch) {
    continuous_picks +=
        w.world.schema.column(c.col).type == ColumnType::kContinuous;
  }
  EXPECT_GE(continuous_picks, 8);
}

TEST(InherentGainPolicy, PicksTheArgmaxGainCell) {
  testing::SimWorld w(55, 2);
  InherentGainPolicy policy(FastOpts());
  policy.Refresh(w.world.schema, w.answers);
  WorkerId u = w.answers.Workers().front();
  CellRef picked;
  ASSERT_TRUE(policy.SelectTask(w.world.schema, w.answers, u, &picked));
  double picked_gain = policy.Gain(w.answers, u, picked);
  for (const CellRef& c :
       CandidateCells(w.answers, u, /*exclude=*/{})) {
    EXPECT_LE(policy.Gain(w.answers, u, c), picked_gain + 1e-9);
  }
}

TEST(StructureAwarePolicy, FallsBackToInherentWithoutRowHistory) {
  testing::SimWorld w(57, 2);
  StructureAwarePolicy policy(FastOpts());
  policy.Refresh(w.world.schema, w.answers);
  // A brand-new worker has no history anywhere: structure gain must equal
  // inherent gain for every cell.
  WorkerId fresh = 9999;
  InherentGainPolicy inherent(FastOpts());
  inherent.Refresh(w.world.schema, w.answers);
  for (int i = 0; i < 5; ++i) {
    CellRef cell{i, 0};
    EXPECT_NEAR(policy.StructureGain(w.answers, fresh, cell),
                inherent.Gain(w.answers, fresh, cell), 1e-9);
  }
}

/// Reference greedy top-k: k rounds of std::max_element (the first
/// of the maxima) over the candidates left after excluding the earlier
/// picks, each round scoring every candidate afresh.
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

TEST(GainPolicies, TopKMatchesRepeatedExclusionIncludingTies) {
  struct Spec {
    const char* label;
    std::function<std::unique_ptr<InherentGainPolicy>()> make;
  };
  const Spec specs[] = {
      {"InherentGain",
       [] { return std::make_unique<InherentGainPolicy>(FastOpts()); }},
      {"StructureAware",
       [] { return std::make_unique<StructureAwarePolicy>(FastOpts()); }},
  };
  for (uint64_t seed : {61u, 62u, 63u}) {
    testing::SimWorld w(seed, 2);
    const Schema& schema = w.world.schema;
    // The bottom half of the table has no answers, so its cells tie within
    // each column: the top-k order must break those ties as repeated
    // exclusion does (row-major).
    const int rows = w.answers.num_rows();
    const int cols = w.answers.num_cols();
    AnswerSet answers(rows, cols);
    for (const Answer& a : w.answers.answers()) {
      if (a.cell.row < rows / 2) answers.Add(a);
    }
    for (const Spec& spec : specs) {
      auto policy = spec.make();
      policy->Refresh(schema, answers);
      auto* structure = dynamic_cast<StructureAwarePolicy*>(policy.get());
      auto score = [&](WorkerId u, CellRef c) {
        return structure != nullptr ? structure->StructureGain(answers, u, c)
                                    : policy->Gain(answers, u, c);
      };
      std::vector<WorkerId> workers = answers.Workers();
      workers.push_back(5555);  // a worker with no history
      Rng rng(seed);
      int tied_neighbours = 0;
      for (WorkerId u : workers) {
        std::vector<CellRef> exclude;
        for (int i = 0; i < rows; ++i) {
          for (int j = 0; j < cols; ++j) {
            if (rng.Bernoulli(0.1)) exclude.push_back(CellRef{i, j});
          }
        }
        int k = rng.UniformInt(1, 12);
        std::vector<CellRef> top =
            policy->SelectTasksExcluding(schema, answers, u, exclude, k);
        std::vector<CellRef> repeated = RepeatedExclusion(
            answers, u, exclude, k, [&](CellRef c) { return score(u, c); });
        ASSERT_EQ(top.size(), repeated.size()) << spec.label << " worker " << u;
        for (size_t n = 0; n < top.size(); ++n) {
          EXPECT_EQ(top[n], repeated[n])
              << spec.label << " worker " << u << " pick " << n;
          if (n > 0 && score(u, top[n]) == score(u, top[n - 1])) {
            ++tied_neighbours;
          }
        }
      }
      EXPECT_GT(tied_neighbours, 0) << spec.label << ": no tie was exercised";
    }
  }
}

TEST(CdasPolicy, TerminatesConfidentTasks) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b", "c", "d"})});
  AnswerSet answers(2, 1);
  // Row 0: unanimous 6 answers -> terminated. Row 1: split -> live.
  for (WorkerId w = 0; w < 6; ++w) {
    answers.Add(w, CellRef{0, 0}, Value::Categorical(2));
  }
  answers.Add(0, CellRef{1, 0}, Value::Categorical(0));
  answers.Add(1, CellRef{1, 0}, Value::Categorical(1));
  answers.Add(2, CellRef{1, 0}, Value::Categorical(2));
  CdasPolicy::Options opt;
  opt.confidence_threshold = 0.6;
  CdasPolicy policy(3, opt);
  policy.Refresh(schema, answers);
  EXPECT_TRUE(policy.IsTerminated(CellRef{0, 0}));
  EXPECT_FALSE(policy.IsTerminated(CellRef{1, 0}));
  // A new worker must receive the live task.
  CellRef cell;
  ASSERT_TRUE(policy.SelectTask(schema, answers, 77, &cell));
  EXPECT_EQ(cell.row, 1);
}

TEST(CdasPolicy, FallsBackWhenEverythingTerminated) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b"})});
  AnswerSet answers(1, 1);
  for (WorkerId w = 0; w < 8; ++w) {
    answers.Add(w, CellRef{0, 0}, Value::Categorical(0));
  }
  CdasPolicy policy(4);
  policy.Refresh(schema, answers);
  EXPECT_TRUE(policy.IsTerminated(CellRef{0, 0}));
  CellRef cell;
  EXPECT_TRUE(policy.SelectTask(schema, answers, 99, &cell));
}

TEST(AskItPolicy, PicksHighestUncertaintyCell) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b"})});
  AnswerSet answers(2, 1);
  // Row 0 unanimous (low entropy), row 1 split (high entropy).
  for (WorkerId w = 0; w < 4; ++w) {
    answers.Add(w, CellRef{0, 0}, Value::Categorical(1));
  }
  answers.Add(0, CellRef{1, 0}, Value::Categorical(0));
  answers.Add(1, CellRef{1, 0}, Value::Categorical(1));
  AskItPolicy policy;
  policy.Refresh(schema, answers);
  CellRef cell;
  ASSERT_TRUE(policy.SelectTask(schema, answers, 50, &cell));
  EXPECT_EQ(cell.row, 1);
}

TEST(AskItPolicy, IsWorkerAgnostic) {
  testing::SimWorld w(58, 2);
  AskItPolicy policy;
  policy.Refresh(w.world.schema, w.answers);
  CellRef a, b;
  ASSERT_TRUE(policy.SelectTask(w.world.schema, w.answers, 1000, &a));
  ASSERT_TRUE(policy.SelectTask(w.world.schema, w.answers, 2000, &b));
  EXPECT_EQ(a, b);
}

TEST(RandomPolicy, CoversManyCellsOverTime) {
  testing::SimWorld w(59, 0);  // no seed answers: everything assignable
  RandomPolicy policy(11);
  policy.Refresh(w.world.schema, w.answers);
  std::set<std::pair<int, int>> seen;
  for (int t = 0; t < 200; ++t) {
    CellRef cell;
    ASSERT_TRUE(policy.SelectTask(w.world.schema, w.answers, 12345, &cell));
    seen.emplace(cell.row, cell.col);
  }
  EXPECT_GT(seen.size(), 100u);
}

}  // namespace
}  // namespace tcrowd
