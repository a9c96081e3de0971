// Reproduces Figure 12: Efficiency of Truth Inference.
//
// (a) Convergence rate: the EM objective stabilizes within a few
//     iterations (paper: < 20 on Celebrity). Printed as a table before the
//     timing benchmarks run.
// (b) Running time: inference time grows linearly with the number of
//     answers (paper: ~100 answers/second in Python 2.7; the C++ numbers
//     are far faster but the LINEAR scaling is the claim under test).
//     Wall-clock timing; `em_iterations` shows whether a fit converged or
//     stopped at the iteration cap.
//
// BM_RefreshWarmStart is the online counterpart: the latency of one
// engine refresh fit (TCrowdOptions::Fast(), 2 EM shards) over a history
// of N answers, cold or warm-started from the fit 64 answers earlier.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "inference/answer_segment.h"
#include "inference/em_executor.h"
#include "inference/tcrowd_model.h"
#include "simulation/dataset_synthesizer.h"
#include "simulation/table_generator.h"

namespace {

using namespace tcrowd;

void PrintConvergenceTrace() {
  std::printf("--- Figure 12(a): EM objective per iteration (Celebrity) "
              "---\n");
  sim::SynthesizerOptions opt;
  opt.seed = 12000;
  auto world = sim::SynthesizeDataset(sim::PaperDataset::kCelebrity, opt);
  TCrowdOptions topt;
  topt.max_em_iterations = 20;
  TCrowdState state =
      TCrowdModel(topt).Fit(world.dataset.schema, world.dataset.answers);
  std::printf("iteration  objective\n");
  for (size_t i = 0; i < state.objective_trace.size(); ++i) {
    std::printf("%9zu  %.2f\n", i + 1, state.objective_trace[i]);
  }
  std::printf("(paper's shape: large jump in the first 2-3 iterations, flat "
              "before iteration 20)\n\n");
}

/// A synthetic world scaled so the answer count hits the requested size
/// (Figure 12(b) uses synthetic data because the real sets are small).
std::unique_ptr<sim::SynthesizedWorld> WorldWithAnswers(int num_answers) {
  const int kCols = 10;
  const int kAnswersPerTask = 5;
  int rows = std::max(1, num_answers / (kCols * kAnswersPerTask));
  sim::TableGeneratorOptions topt;
  topt.num_rows = rows;
  topt.num_cols = kCols;
  Rng rng(12100 + num_answers);
  sim::GeneratedTable table = sim::GenerateTable(topt, &rng);
  sim::CrowdOptions copt;
  copt.num_workers = 60;
  return std::make_unique<sim::SynthesizedWorld>(sim::SynthesizeFromTable(
      std::move(table), copt, kAnswersPerTask, 12200 + num_answers));
}

void BM_TruthInference(benchmark::State& state) {
  auto world = WorldWithAnswers(static_cast<int>(state.range(0)));
  TCrowdModel model;  // paper-faithful settings (tolerance 1e-5)
  // One executor across iterations, as the serving engine keeps one: the
  // timed loop pays no thread start-up.
  EmExecutor executor(static_cast<int>(state.range(1)));
  int em_iterations = 0;
  for (auto _ : state) {
    TCrowdState fit =
        model.Fit(world->dataset.schema, world->dataset.answers, &executor);
    em_iterations = fit.em_iterations;
    benchmark::DoNotOptimize(fit.em_iterations);
  }
  state.counters["answers"] =
      static_cast<double>(world->dataset.answers.size());
  state.counters["em_iterations"] = em_iterations;
  // A wall-clock rate: the benchmark runs on real time, and the EM's
  // shards run on pool threads the main thread's CPU time never sees.
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world->dataset.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_RefreshWarmStart(benchmark::State& state) {
  const int num_answers = static_cast<int>(state.range(0));
  const bool warm_start = state.range(1) != 0;
  auto world = WorldWithAnswers(num_answers);
  const Schema& schema = world->dataset.schema;
  const AnswerSet& answers = world->dataset.answers;
  constexpr int kRefreshEvery = 64;  // the engine's default staleness
  AnswerSet earlier(answers.num_rows(), answers.num_cols());
  for (size_t k = 0; k + kRefreshEvery < answers.size(); ++k) {
    earlier.Add(answers.answer(static_cast<int>(k)));
  }

  TCrowdModel model(TCrowdOptions::Fast());
  EmExecutor executor(2);
  TCrowdWarmStart warm =
      TCrowdWarmStart::From(model.Fit(schema, earlier, &executor));
  // The snapshot is built outside the timed loop: an engine refresh seals
  // only its new tail and streams the already-sealed segments.
  AnswerMatrixSnapshot snapshot = model.BatchSnapshot(schema, answers);
  int em_iterations = 0;
  for (auto _ : state) {
    TCrowdState fit = model.Fit(schema, snapshot, &executor,
                                warm_start ? &warm : nullptr);
    em_iterations = fit.em_iterations;
    benchmark::DoNotOptimize(fit.em_iterations);
  }
  state.counters["answers"] = static_cast<double>(answers.size());
  state.counters["em_iterations"] = em_iterations;
}

}  // namespace

// (b) swept over answers and over the EmExecutor's shard count (threads),
// across which the E-step and the M-step passes fan out.
BENCHMARK(BM_TruthInference)
    ->ArgsProduct({{1000, 5000, 10000, 50000}, {1, 2, 4}})
    ->ArgNames({"answers", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_RefreshWarmStart)
    ->ArgsProduct({{10000, 50000, 200000}, {0, 1}})
    ->ArgNames({"answers", "warm"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  PrintConvergenceTrace();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
