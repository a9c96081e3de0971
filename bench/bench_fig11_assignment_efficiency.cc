// Reproduces Figure 11: Efficiency of Assignment (Celebrity).
//
// The paper measures the time to compute the structure-aware information
// gain of ALL candidate tasks for one incoming worker, as a function of the
// average number of answers collected so far, and observes linear growth
// with assignments completing in real-time (< 0.5 s with 8 processes).
//
// google-benchmark binary: one benchmark per answers-per-task level, plus a
// parallel (thread-pool) variant demonstrating the Section 5.1
// parallelization. BM_PolicyRefreshCaller times what a policy refresh
// costs the serving thread now that the EM refit runs on the policy's own
// worker.

#include <benchmark/benchmark.h>

#include <memory>

#include "assignment/policies.h"
#include "common/logging.h"
#include "inference/tcrowd_model.h"
#include "simulation/dataset_synthesizer.h"

namespace {

using namespace tcrowd;

struct PreparedWorld {
  std::unique_ptr<sim::SynthesizedWorld> world;
  std::unique_ptr<StructureAwarePolicy> policy;

  PreparedWorld(int answers_per_task, int threads) {
    sim::SynthesizerOptions opt;
    opt.seed = 11000 + answers_per_task;
    opt.answers_per_task = answers_per_task;
    world = std::make_unique<sim::SynthesizedWorld>(
        sim::SynthesizeDataset(sim::PaperDataset::kCelebrity, opt));
    policy = std::make_unique<StructureAwarePolicy>(
        TCrowdOptions::Fast(), ErrorCorrelationModel::Options(), threads);
    policy->Refresh(world->dataset.schema, world->dataset.answers);
  }
};

void BM_StructureAwareSelect(benchmark::State& state) {
  int answers_per_task = static_cast<int>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  PreparedWorld prepared(answers_per_task, threads);
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

// Answers-per-task sweep (serial scoring): expect roughly linear time in
// the number of collected answers.
BENCHMARK(BM_StructureAwareSelect)
    ->ArgsProduct({{2, 3, 4, 5}, {1}})
    ->Unit(benchmark::kMillisecond);
// Parallel scoring with 8 threads, as in the paper's setup.
BENCHMARK(BM_StructureAwareSelect)
    ->ArgsProduct({{5}, {8}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_PolicyRefreshCaller)
    ->Arg(1000)
    ->Arg(3000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
