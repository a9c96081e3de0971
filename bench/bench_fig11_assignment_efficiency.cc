// Reproduces Figure 11: Efficiency of Assignment (Celebrity).
//
// The paper measures the time to compute the structure-aware information
// gain of ALL candidate tasks for one incoming worker, as a function of the
// average number of answers collected so far, and observes linear growth
// with assignments completing in real-time (< 0.5 s with 8 processes).
//
// google-benchmark binary: one benchmark per answers-per-task level (the
// scoring runs serially; a pool for it did not pay off on the serving lease
// shape, see CHANGES.md). BM_StructureAwareLease times one lease of the
// structure-assign serving workload's shape. BM_PolicyRefreshCaller times
// what a policy refresh costs the serving thread now that the EM refit runs
// on the policy's own worker.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "assignment/policies.h"
#include "common/logging.h"
#include "inference/tcrowd_model.h"
#include "simulation/dataset_synthesizer.h"

namespace {

using namespace tcrowd;

struct PreparedWorld {
  std::unique_ptr<sim::SynthesizedWorld> world;
  std::unique_ptr<StructureAwarePolicy> policy;

  explicit PreparedWorld(int answers_per_task) {
    sim::SynthesizerOptions opt;
    opt.seed = 11000 + answers_per_task;
    opt.answers_per_task = answers_per_task;
    world = std::make_unique<sim::SynthesizedWorld>(
        sim::SynthesizeDataset(sim::PaperDataset::kCelebrity, opt));
    policy = std::make_unique<StructureAwarePolicy>(TCrowdOptions::Fast());
    policy->Refresh(world->dataset.schema, world->dataset.answers);
  }
};

void BM_StructureAwareSelect(benchmark::State& state) {
  PreparedWorld prepared(static_cast<int>(state.range(0)));
  WorkerId worker = 0;
  for (auto _ : state) {
    CellRef cell;
    bool ok = prepared.policy->SelectTask(prepared.world->dataset.schema,
                                          prepared.world->dataset.answers,
                                          worker, &cell);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(cell);
    worker = (worker + 1) % prepared.world->crowd->num_workers();
  }
  state.counters["answers"] = static_cast<double>(
      prepared.world->dataset.answers.size());
}

// One structure-aware lease as the service issues it in the middle of a
// run on the restaurant world: 60% of a 3-answers-per-task history
// collected, the cells that already reached 3 answers excluded as
// finalized, k = 2, and an incoming worker who has answered cells before
// (so their row evidence conditions the gain).
void BM_StructureAwareLease(benchmark::State& state) {
  constexpr int kTarget = 3;
  sim::SynthesizerOptions opt;
  opt.seed = 13000;
  opt.answers_per_task = kTarget;
  sim::SynthesizedWorld world =
      sim::SynthesizeDataset(sim::PaperDataset::kRestaurant, opt);
  const AnswerSet& all = world.dataset.answers;
  AnswerSet answers(all.num_rows(), all.num_cols());
  for (size_t n = 0; n < all.size() * 6 / 10; ++n) {
    answers.Add(all.answer(static_cast<int>(n)));
  }
  std::vector<CellRef> finalized;
  for (int i = 0; i < answers.num_rows(); ++i) {
    for (int j = 0; j < answers.num_cols(); ++j) {
      if (answers.CellAnswerCount(i, j) >= kTarget) {
        finalized.push_back(CellRef{i, j});
      }
    }
  }
  std::vector<WorkerId> workers = answers.Workers();
  TCROWD_CHECK(!workers.empty());

  StructureAwarePolicy policy(TCrowdOptions::Fast());
  policy.Refresh(world.dataset.schema, answers);
  size_t next = 0;
  for (auto _ : state) {
    std::vector<CellRef> leased = policy.SelectTasksExcluding(
        world.dataset.schema, answers, workers[next], finalized, 2);
    benchmark::DoNotOptimize(leased);
    next = (next + 1) % workers.size();
  }
  state.counters["answers"] = static_cast<double>(answers.size());
  state.counters["finalized"] = static_cast<double>(finalized.size());
}

// Caller-thread time of StructureAwarePolicy::Refresh over the first
// range(0) answers of a restaurant world: building the next fit's snapshot,
// installing the previous fit and refitting the correlation model. The EM
// fit itself runs on the policy's worker; each iteration lets it finish
// untimed, as the answers between two refreshes do in the service.
void BM_PolicyRefreshCaller(benchmark::State& state) {
  const size_t num_answers = static_cast<size_t>(state.range(0));
  sim::SynthesizerOptions opt;
  opt.seed = 12000;
  opt.answers_per_task = 4;
  sim::SynthesizedWorld world =
      sim::SynthesizeDataset(sim::PaperDataset::kRestaurant, opt);
  const AnswerSet& all = world.dataset.answers;
  TCROWD_CHECK(all.size() >= num_answers);
  AnswerSet answers(all.num_rows(), all.num_cols());
  for (size_t n = 0; n < num_answers; ++n) {
    answers.Add(all.answer(static_cast<int>(n)));
  }

  StructureAwarePolicy policy(TCrowdOptions::Fast());
  policy.Refresh(world.dataset.schema, answers);  // the cold first fit
  for (auto _ : state) {
    state.PauseTiming();
    policy.WaitForRefit();
    state.ResumeTiming();
    policy.Refresh(world.dataset.schema, answers);
  }
  state.counters["answers"] = static_cast<double>(answers.size());
}

}  // namespace

// Answers-per-task sweep: expect roughly linear time in the number of
// collected answers.
BENCHMARK(BM_StructureAwareSelect)
    ->DenseRange(2, 5)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
// The structure-assign serving workload's lease shape.
BENCHMARK(BM_StructureAwareLease)->UseRealTime()->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_PolicyRefreshCaller)
    ->Arg(1000)
    ->Arg(3000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
