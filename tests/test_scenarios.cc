// The adversarial & dynamic scenario pack: registry completeness, the
// quality-vs-budget curve contract, and the headline acceptance property —
// hostile crowds (spam wave, collusion ring) must degrade majority voting
// MORE than T-Crowd, because down-weighting unreliable workers is the whole
// point of quality-aware truth inference.

#include "simulation/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "assignment/policies.h"
#include "inference/tcrowd_model.h"
#include "service/crowd_service.h"
#include "test_helpers.h"

namespace tcrowd::sim {
namespace {

using tcrowd::testing::ExpectTablesMatch;
using tcrowd::testing::InferOnShards;
using tcrowd::testing::SimWorld;

/// A tame 12x4 world whose honest workers are accurate and uniformly
/// familiar: any quality gap in a scenario's curve is attributable to the
/// injected adversaries, not to honest noise.
TableGeneratorOptions TameTable() {
  TableGeneratorOptions topt;
  topt.num_rows = 12;
  topt.num_cols = 4;
  topt.categorical_ratio = 0.5;
  return topt;
}

CrowdOptions TameCrowd() {
  CrowdOptions copt;
  copt.num_workers = 24;
  copt.phi_median = 0.15;
  copt.phi_log_sigma = 0.5;
  copt.unfamiliar_prob = 0.0;
  copt.participation_skew = 0.5;
  return copt;
}

service::ServiceConfig ScenarioConfig(int target = 5) {
  service::ServiceConfig config;
  config.target_answers_per_task = target;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 48;
  config.router.seed = 3;
  return config;
}

ScenarioReport RunScenario(const std::string& name, SimWorld* world,
                           service::CrowdService* svc, uint64_t seed) {
  ScenarioSpec spec;
  EXPECT_TRUE(FindScenario(name, &spec)) << name;
  ScenarioOptions opt;
  opt.checkpoints = 4;
  opt.tasks_per_request = 4;
  opt.seed = seed;
  ScenarioRunner runner(spec, &world->crowd, svc, opt);
  return runner.Run();
}

TEST(Scenarios, RegistryContainsTheRequiredPack) {
  std::vector<std::string> names = ScenarioNames();
  for (const char* required :
       {"baseline-honest", "spam-wave", "collusion-ring", "quality-drift",
        "retraction-storm"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), required) !=
                names.end())
        << "missing scenario " << required;
    ScenarioSpec spec;
    ASSERT_TRUE(FindScenario(required, &spec));
    EXPECT_EQ(spec.name, required);
    EXPECT_FALSE(spec.description.empty());
    EXPECT_NE(spec.behavior, nullptr);
    EXPECT_NE(spec.arrivals, nullptr);
  }
  ScenarioSpec spec;
  EXPECT_FALSE(FindScenario("no-such-scenario", &spec));
  // Only the retraction scenario applies retraction pressure.
  ASSERT_TRUE(FindScenario("retraction-storm", &spec));
  EXPECT_GT(spec.retract_prob, 0.0);
  ASSERT_TRUE(FindScenario("baseline-honest", &spec));
  EXPECT_EQ(spec.retract_prob, 0.0);
}

TEST(Scenarios, QualityCurveCsvFormatIsStable) {
  ScenarioReport report;
  report.scenario = "spam-wave";
  report.curve.push_back({60, 0.25, 0.125, 0.5, 0.25});
  report.curve.push_back({120, 0.125, 0.0625, 0.375, 0.1875});
  EXPECT_EQ(FormatQualityCurveCsv(report),
            "scenario,budget,tcrowd_error_rate,tcrowd_mnad,"
            "mv_error_rate,mv_mnad\n"
            "spam-wave,60,0.250000,0.125000,0.500000,0.250000\n"
            "spam-wave,120,0.125000,0.062500,0.375000,0.187500\n");
}

TEST(Scenarios, BaselineHonestDrainsWithAMonotoneBudgetAxis) {
  SimWorld world(51, /*answers_per_task=*/0, TameTable(), TameCrowd());
  service::CrowdService svc(world.world.schema,
                            world.world.truth.num_rows(),
                            std::make_unique<LoopingPolicy>(),
                            ScenarioConfig());
  ScenarioReport report = RunScenario("baseline-honest", &world, &svc, 17);

  const int64_t budget = 5 * 12 * 4;
  EXPECT_FALSE(report.stopped_early);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.answers_retracted, 0);
  EXPECT_EQ(report.answers_accepted, budget);
  EXPECT_EQ(report.final_stats.budget_spent, budget);
  EXPECT_TRUE(svc.Drained());

  ASSERT_GE(report.curve.size(), 2u);
  for (size_t k = 1; k < report.curve.size(); ++k) {
    EXPECT_GT(report.curve[k].budget, report.curve[k - 1].budget);
  }
  EXPECT_EQ(report.curve.back().budget, budget);
  // Honest accurate crowd at 5 answers per task: both methods do well, and
  // T-Crowd ends no worse than coin flips by a wide margin.
  EXPECT_LT(report.curve.back().tcrowd_error_rate, 0.35);
}

TEST(Scenarios, ScenarioRunsAreSeedDeterministic) {
  // Two identical runs produce the same curve to the last bit — the ground
  // the fixed-seed adversarial assertions below stand on.
  auto run_once = [](uint64_t seed) {
    SimWorld world(52, /*answers_per_task=*/0, TameTable(), TameCrowd());
    service::CrowdService svc(world.world.schema,
                              world.world.truth.num_rows(),
                              std::make_unique<LoopingPolicy>(),
                              ScenarioConfig());
    return RunScenario("spam-wave", &world, &svc, seed);
  };
  ScenarioReport a = run_once(23);
  ScenarioReport b = run_once(23);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.answers_accepted, b.answers_accepted);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t k = 0; k < a.curve.size(); ++k) {
    EXPECT_EQ(a.curve[k].budget, b.curve[k].budget) << "point " << k;
    EXPECT_EQ(a.curve[k].tcrowd_error_rate, b.curve[k].tcrowd_error_rate)
        << "point " << k;
    EXPECT_EQ(a.curve[k].tcrowd_mnad, b.curve[k].tcrowd_mnad)
        << "point " << k;
    EXPECT_EQ(a.curve[k].mv_error_rate, b.curve[k].mv_error_rate)
        << "point " << k;
    EXPECT_EQ(a.curve[k].mv_mnad, b.curve[k].mv_mnad) << "point " << k;
  }
}

// The adversarial-separation world: 20x6 at 6 answers per task. Scanned
// world seeds 50..73 all give T-Crowd a positive margin over majority
// voting under both adversaries — the fixed seeds below are nowhere near
// a cliff.
TableGeneratorOptions SeparationTable() {
  TableGeneratorOptions topt = TameTable();
  topt.num_rows = 20;
  topt.num_cols = 6;
  return topt;
}

TEST(Scenarios, SpamWaveDegradesMajorityVoteMoreThanTCrowd) {
  SimWorld world(54, /*answers_per_task=*/0, SeparationTable(), TameCrowd());
  service::CrowdService svc(world.world.schema,
                            world.world.truth.num_rows(),
                            std::make_unique<LoopingPolicy>(),
                            ScenarioConfig(6));
  ScenarioReport report = RunScenario("spam-wave", &world, &svc, 29);
  ASSERT_FALSE(report.curve.empty());
  const QualityPoint& end = report.curve.back();
  EXPECT_LT(end.tcrowd_error_rate, end.mv_error_rate)
      << "T-Crowd should shrug off uniform-random spam that majority "
         "voting cannot";
}

TEST(Scenarios, CollusionRingDegradesMajorityVoteMoreThanTCrowd) {
  SimWorld world(55, /*answers_per_task=*/0, SeparationTable(), TameCrowd());
  service::CrowdService svc(world.world.schema,
                            world.world.truth.num_rows(),
                            std::make_unique<LoopingPolicy>(),
                            ScenarioConfig(6));
  ScenarioReport report = RunScenario("collusion-ring", &world, &svc, 31);
  ASSERT_FALSE(report.curve.empty());
  const QualityPoint& end = report.curve.back();
  EXPECT_LT(end.tcrowd_error_rate, end.mv_error_rate)
      << "a clique agreeing on wrong answers tips votes but not "
         "quality-weighted inference";
}

TEST(Scenarios, RetractionStormExercisesTheTombstonePathEndToEnd) {
  SimWorld world(55, /*answers_per_task=*/0, TameTable(), TameCrowd());
  service::CrowdService svc(world.world.schema,
                            world.world.truth.num_rows(),
                            std::make_unique<LoopingPolicy>(),
                            ScenarioConfig());
  ScenarioReport report = RunScenario("retraction-storm", &world, &svc, 37);

  // The storm actually stormed, and every disavowal found its answer.
  EXPECT_GT(report.answers_retracted, 10);
  EXPECT_EQ(report.retraction_misses, 0);
  EXPECT_EQ(report.rejected, 0);

  // The ledger, the engine, and the report agree on every count.
  EXPECT_EQ(report.final_stats.answers_retracted, report.answers_retracted);
  EXPECT_EQ(svc.engine().num_retractions(),
            static_cast<size_t>(report.answers_retracted));
  EXPECT_EQ(report.final_stats.budget_spent,
            report.answers_accepted - report.answers_retracted);
  EXPECT_EQ(svc.engine().SnapshotAnswers().size(),
            static_cast<size_t>(report.final_stats.budget_spent));

  // Zero tolerance survives the storm: finalizing after live retractions
  // still equals the batch model over the surviving answers, bit for bit.
  InferenceResult finalized = svc.Finalize();
  AnswerSet survivors = svc.engine().SnapshotAnswers();
  TCrowdModel batch(svc.engine().args().tcrowd_options);
  InferenceResult expected = InferOnShards(
      batch, world.world.schema, survivors, svc.engine().args().num_shards);
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

}  // namespace
}  // namespace tcrowd::sim
