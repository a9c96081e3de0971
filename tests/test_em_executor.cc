#include "inference/em_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "inference/tcrowd_model.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

using tcrowd::testing::SimWorld;

TEST(EmExecutor, ParallelForCoversEveryItemWithMoreShardsThanItems) {
  EmExecutor exec(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h = 0;
  exec.ParallelFor(3, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(EmExecutor, SerialExecutorRunsOnCallerThread) {
  EmExecutor exec(1);
  EXPECT_EQ(exec.num_shards(), 1);
  int calls = 0;
  exec.ParallelFor(5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

// Integer-valued contributions make floating-point sums exact in any
// association, so the tree reduction must agree with the serial sum to the
// last bit.
TEST(EmExecutor, TreeReductionMatchesSerialSumExactly) {
  const size_t n = 5000;  // above kMinItemsForSharding
  const size_t kGradSize = 7;
  auto body = [](size_t lo, size_t hi, double* grad, double* value) {
    for (size_t i = lo; i < hi; ++i) {
      grad[i % 7] += static_cast<double>(i % 13);
      *value += static_cast<double>(i % 5);
    }
  };
  std::vector<double> serial_grad(kGradSize, 0.0);
  EmExecutor serial(1);
  double serial_val =
      serial.AccumulateSharded(n, kGradSize, body, &serial_grad);

  for (int shards : {2, 4, 8}) {
    EmExecutor exec(shards);
    std::vector<double> grad(kGradSize, 0.0);
    double val = exec.AccumulateSharded(n, kGradSize, body, &grad);
    EXPECT_EQ(val, serial_val) << shards << " shards";
    for (size_t k = 0; k < kGradSize; ++k) {
      EXPECT_EQ(grad[k], serial_grad[k]) << shards << " shards, slot " << k;
    }
  }
}

TEST(EmExecutor, AccumulateAddsIntoExistingGradient) {
  EmExecutor exec(4);
  auto body = [](size_t lo, size_t hi, double* grad, double* value) {
    for (size_t i = lo; i < hi; ++i) {
      grad[0] += 1.0;
      *value += 1.0;
    }
  };
  // Below the sharding threshold: runs serially, still adds (not assigns).
  std::vector<double> grad(2, 10.0);
  double val = exec.AccumulateSharded(100, 2, body, &grad);
  EXPECT_EQ(val, 100.0);
  EXPECT_EQ(grad[0], 110.0);
  EXPECT_EQ(grad[1], 10.0);

  // Above the threshold: sharded path keeps the same contract.
  grad.assign(2, 10.0);
  val = exec.AccumulateSharded(4096, 2, body, &grad);
  EXPECT_EQ(val, 4096.0);
  EXPECT_EQ(grad[0], 4106.0);
}

TEST(EmExecutor, ScratchSurvivesAcrossCallsWithGrowingSizes) {
  EmExecutor exec(4);
  auto body = [](size_t lo, size_t hi, double* grad, double* value) {
    for (size_t i = lo; i < hi; ++i) {
      grad[0] += 1.0;
      *value += 2.0;
    }
  };
  for (size_t grad_size : {size_t{3}, size_t{1}, size_t{8}}) {
    std::vector<double> grad(grad_size, 0.0);
    double val = exec.AccumulateSharded(3000, grad_size, body, &grad);
    EXPECT_EQ(val, 6000.0);
    EXPECT_EQ(grad[0], 3000.0);
    for (size_t k = 1; k < grad_size; ++k) EXPECT_EQ(grad[k], 0.0);
  }
}

// Shard count exceeding the tuple count: the E-step partition caps at the
// row count and the small answer set keeps the M-step serial, so the fit
// must be bit-identical to the serial model.
TEST(EmExecutor, FitWithMoreShardsThanRowsMatchesSerialBitForBit) {
  sim::TableGeneratorOptions topt = SimWorld::DefaultTable();
  topt.num_rows = 3;
  SimWorld world(21, /*answers_per_task=*/2, topt);

  TCrowdModel model(TCrowdOptions::Fast());
  TCrowdState serial = model.Fit(world.world.schema, world.answers);

  EmExecutor executor(8);  // > 3 rows
  TCrowdState sharded =
      model.Fit(world.world.schema, world.answers, &executor);

  ASSERT_EQ(serial.posteriors.size(), sharded.posteriors.size());
  EXPECT_EQ(serial.em_iterations, sharded.em_iterations);
  for (size_t c = 0; c < serial.posteriors.size(); ++c) {
    const CellPosterior& a = serial.posteriors[c];
    const CellPosterior& b = sharded.posteriors[c];
    ASSERT_EQ(a.probs.size(), b.probs.size()) << "cell " << c;
    if (a.probs.empty()) {
      EXPECT_EQ(a.mean, b.mean) << "cell " << c;
      EXPECT_EQ(a.variance, b.variance) << "cell " << c;
    } else {
      for (size_t z = 0; z < a.probs.size(); ++z) {
        EXPECT_EQ(a.probs[z], b.probs[z]) << "cell " << c;
      }
    }
  }
  for (int i = 0; i < serial.num_rows; ++i) {
    EXPECT_EQ(serial.row_difficulty[i], sharded.row_difficulty[i]);
  }
  for (const auto& [w, phi] : serial.worker_phi) {
    EXPECT_EQ(phi, sharded.worker_phi.at(w));
  }
}

// A persistent executor reused across fits gives the same results as a
// fresh executor of the same shard count (scratch carries no state between
// fits).
TEST(EmExecutor, PersistentExecutorReuseMatchesTransientFits) {
  SimWorld world(22, /*answers_per_task=*/9);  // 2160 answers: sharded M-step
  ASSERT_GE(world.answers.size(), EmExecutor::kMinItemsForSharding);
  TCrowdModel model(TCrowdOptions::Fast());

  TCrowdState transient = [&] {
    EmExecutor fresh(4);
    return model.Fit(world.world.schema, world.answers, &fresh);
  }();

  EmExecutor persistent(4);
  for (int round = 0; round < 2; ++round) {
    TCrowdState st =
        model.Fit(world.world.schema, world.answers, &persistent);
    ASSERT_EQ(st.posteriors.size(), transient.posteriors.size());
    for (size_t c = 0; c < st.posteriors.size(); ++c) {
      const CellPosterior& a = transient.posteriors[c];
      const CellPosterior& b = st.posteriors[c];
      if (a.probs.empty()) {
        EXPECT_EQ(a.mean, b.mean) << "round " << round << " cell " << c;
      } else {
        for (size_t z = 0; z < a.probs.size(); ++z) {
          EXPECT_EQ(a.probs[z], b.probs[z])
              << "round " << round << " cell " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tcrowd
