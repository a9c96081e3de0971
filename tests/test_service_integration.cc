// End-to-end exercise of the online service layer: a simulated crowd is
// replayed through CrowdService by the LoadGenerator, and the incremental
// engine's finalized truths are checked against batch T-Crowd inference on
// the same answer set. The replay is a pure function of its options, and
// the service and the shard router keep exact books when several threads
// call them at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "assignment/policies.h"
#include "inference/tcrowd_model.h"
#include "platform/metrics.h"
#include "service/crowd_service.h"
#include "service/shard_router.h"
#include "simulation/load_generator.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

using tcrowd::testing::SimWorld;

ServiceConfig ServingConfig(int target) {
  ServiceConfig config;
  config.target_answers_per_task = target;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 60;
  config.inference.num_shards = 2;
  config.router.backfill = BackfillStrategy::kLeastAnswered;
  config.router.refresh_every_answers = 80;
  return config;
}

TEST(ServiceIntegration, ReplayDrainsBudgetAndMatchesBatchInference) {
  // 20x4 mixed table, 12 workers; target 4 answers per task = 320 answers.
  sim::TableGeneratorOptions topt;
  topt.num_rows = 20;
  topt.num_cols = 4;
  topt.categorical_ratio = 0.5;
  sim::CrowdOptions copt = SimWorld::DefaultCrowd();
  copt.num_workers = 12;
  SimWorld world(91, /*answers_per_task=*/0, topt, copt);

  const int kTarget = 4;
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<EntropyPolicy>(TCrowdOptions::Fast()),
                   ServingConfig(kTarget));

  sim::LoadGeneratorOptions load;
  load.max_arrivals = 100000;
  load.tasks_per_request = 2;
  load.abandon_prob = 0.1;  // exercise lease release + backfill
  load.seed = 5;
  sim::LoadGenerator generator(&world.crowd, &svc, load);
  sim::LoadReport report = generator.Run();

  // The replay must drain the whole budget: every task finalized, answer
  // counts exactly at target, nothing rejected.
  const int num_cells = world.world.truth.num_rows() *
                        world.world.schema.num_columns();
  EXPECT_TRUE(svc.Drained());
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.answers, static_cast<int64_t>(num_cells) * kTarget);
  EXPECT_GT(report.abandoned_sessions, 0);

  ServiceStats stats = report.final_stats;
  EXPECT_EQ(stats.tasks_finalized, num_cells);
  EXPECT_EQ(stats.budget_spent, static_cast<int64_t>(num_cells) * kTarget);
  EXPECT_EQ(stats.budget_remaining, 0);
  EXPECT_EQ(stats.sessions_active, 0);
  // The engine's first refresh runs on its pool and may still be in flight
  // when the replay returns: wait for it before counting refreshes.
  svc.engine().WaitForRefresh();
  EXPECT_GE(svc.Stats().engine_refreshes, 1);
  for (int i = 0; i < world.world.truth.num_rows(); ++i) {
    for (int j = 0; j < world.world.schema.num_columns(); ++j) {
      EXPECT_EQ(svc.AnswerCount(CellRef{i, j}), kTarget);
      EXPECT_EQ(svc.task_state(CellRef{i, j}), TaskState::kFinalized);
    }
  }

  // Metrics registry agrees with the report.
  EXPECT_EQ(svc.metrics().counter("service.answers_accepted").value(),
            report.answers);
  EXPECT_EQ(svc.metrics().latency("service.submit_answer").count(),
            report.answers);

  // Incremental-vs-batch equivalence: the finalized truths must match batch
  // T-Crowd inference over the very same answer matrix.
  InferenceResult finalized = svc.Finalize();
  AnswerSet collected = svc.engine().SnapshotAnswers();
  EXPECT_EQ(collected.size(), static_cast<size_t>(report.answers));
  TCrowdModel batch(svc.engine().args().tcrowd_options);
  InferenceResult expected = tcrowd::testing::InferOnShards(
      batch, world.world.schema, collected, svc.engine().args().num_shards);
  for (int i = 0; i < world.world.truth.num_rows(); ++i) {
    for (int j = 0; j < world.world.schema.num_columns(); ++j) {
      const Value& got = finalized.estimated_truth.at(i, j);
      const Value& want = expected.estimated_truth.at(i, j);
      ASSERT_EQ(got.valid(), want.valid());
      if (!got.valid()) continue;
      if (got.is_categorical()) {
        EXPECT_EQ(got.label(), want.label()) << "cell " << i << "," << j;
      } else {
        EXPECT_NEAR(got.number(), want.number(), 1e-9)
            << "cell " << i << "," << j;
      }
    }
  }

  // Sanity: with 4 answers per task the estimate should beat coin flips.
  double error = Metrics::ErrorRate(world.world.truth,
                                    finalized.estimated_truth);
  EXPECT_LT(error, 0.5);
}

TEST(ServiceIntegration, BatchReplayDrainsAndMatchesBatchInference) {
  // The same end-to-end drain, but paged through SubmitAnswerBatch (the
  // LoadGenerator batch replay mode): accounting must balance exactly and
  // the finalized truths must still match batch T-Crowd bit for bit.
  sim::TableGeneratorOptions topt;
  topt.num_rows = 16;
  topt.num_cols = 4;
  topt.categorical_ratio = 0.5;
  sim::CrowdOptions copt = SimWorld::DefaultCrowd();
  copt.num_workers = 10;
  SimWorld world(93, /*answers_per_task=*/0, topt, copt);

  const int kTarget = 3;
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<LoopingPolicy>(), ServingConfig(kTarget));

  sim::LoadGeneratorOptions load;
  load.max_arrivals = 100000;
  load.tasks_per_request = 6;
  load.batch_size = 4;  // pages of 4 through SubmitAnswerBatch
  load.seed = 9;
  sim::LoadGenerator generator(&world.crowd, &svc, load);
  sim::LoadReport report = generator.Run();

  const int num_cells =
      world.world.truth.num_rows() * world.world.schema.num_columns();
  EXPECT_TRUE(svc.Drained());
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.answers, static_cast<int64_t>(num_cells) * kTarget);
  EXPECT_GT(report.batches, 0);
  EXPECT_EQ(svc.metrics().counter("service.answer_batches").value(),
            report.batches);
  EXPECT_EQ(svc.metrics().counter("service.answers_accepted").value(),
            report.answers);
  EXPECT_EQ(svc.engine().num_answers(),
            static_cast<size_t>(report.answers));

  InferenceResult finalized = svc.Finalize();
  AnswerSet collected = svc.engine().SnapshotAnswers();
  TCrowdModel batch(svc.engine().args().tcrowd_options);
  InferenceResult expected = tcrowd::testing::InferOnShards(
      batch, world.world.schema, collected, svc.engine().args().num_shards);
  for (int i = 0; i < world.world.truth.num_rows(); ++i) {
    for (int j = 0; j < world.world.schema.num_columns(); ++j) {
      const Value& got = finalized.estimated_truth.at(i, j);
      const Value& want = expected.estimated_truth.at(i, j);
      ASSERT_EQ(got.valid(), want.valid());
      if (!got.valid()) continue;
      if (got.is_categorical()) {
        EXPECT_EQ(got.label(), want.label()) << "cell " << i << "," << j;
      } else {
        EXPECT_EQ(got.number(), want.number()) << "cell " << i << "," << j;
      }
    }
  }
}

/// Bit-level comparison of two answer logs: same length, same chronological
/// order, same workers/cells/values to the last bit.
void ExpectAnswerLogsIdentical(const AnswerSet& a, const AnswerSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    const Answer& x = a.answer(static_cast<int>(k));
    const Answer& y = b.answer(static_cast<int>(k));
    ASSERT_EQ(x.worker, y.worker) << "answer " << k;
    ASSERT_EQ(x.cell.row, y.cell.row) << "answer " << k;
    ASSERT_EQ(x.cell.col, y.cell.col) << "answer " << k;
    ASSERT_EQ(x.value.is_categorical(), y.value.is_categorical())
        << "answer " << k;
    if (x.value.is_categorical()) {
      ASSERT_EQ(x.value.label(), y.value.label()) << "answer " << k;
    } else {
      ASSERT_EQ(x.value.number(), y.value.number()) << "answer " << k;
    }
  }
}

TEST(ServiceIntegration, DeterministicReplayIsReproducible) {
  // The deterministic replay contract: the replayed history — and
  // therefore the finalized truths — is a pure function of the options.
  // Run the same campaign twice on fresh worlds and demand bit-equality
  // end to end.
  auto run = [](AnswerSet* log, Table* truths, Schema* schema,
                sim::LoadReport* out) {
    sim::TableGeneratorOptions topt;
    topt.num_rows = 16;
    topt.num_cols = 4;
    topt.categorical_ratio = 0.5;
    sim::CrowdOptions copt = SimWorld::DefaultCrowd();
    copt.num_workers = 10;
    SimWorld world(94, /*answers_per_task=*/0, topt, copt);
    *schema = world.world.schema;

    CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                     std::make_unique<LoopingPolicy>(), ServingConfig(3));
    sim::LoadGeneratorOptions load;
    load.tasks_per_request = 3;
    load.abandon_prob = 0.1;
    load.seed = 21;
    sim::LoadGenerator generator(&world.crowd, &svc, load);
    *out = generator.Run();
    EXPECT_TRUE(svc.Drained());
    *log = svc.engine().SnapshotAnswers();
    *truths = svc.Finalize().estimated_truth;
  };

  AnswerSet log_a(0, 0), log_b(0, 0);
  Table truths_a, truths_b;
  Schema schema_a, schema_b;
  sim::LoadReport a, b;
  run(&log_a, &truths_a, &schema_a, &a);
  run(&log_b, &truths_b, &schema_b, &b);

  EXPECT_GT(a.abandoned_sessions, 0);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.abandoned_sessions, b.abandoned_sessions);
  EXPECT_EQ(a.rejected, b.rejected);
  ExpectAnswerLogsIdentical(log_a, log_b);
  // Zero tolerance on the finalized truths — not "close", identical.
  tcrowd::testing::ExpectTablesMatch(schema_a, truths_a, truths_b, 0.0);
}

TEST(ServiceIntegration, DeterministicCrashPointIsReproducible) {
  // The kill switch must trip on the same arrival every time: the durable
  // prefix a crash leaves behind is reproducible.
  auto run = [](AnswerSet* log, int64_t* arrivals) {
    sim::TableGeneratorOptions topt;
    topt.num_rows = 16;
    topt.num_cols = 4;
    SimWorld world(95, /*answers_per_task=*/0, topt);
    CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                     std::make_unique<LoopingPolicy>(), ServingConfig(3));
    sim::LoadGeneratorOptions load;
    load.tasks_per_request = 3;
    load.stop_after_answers = 77;
    load.seed = 33;
    sim::LoadGenerator generator(&world.crowd, &svc, load);
    sim::LoadReport report = generator.Run();
    EXPECT_TRUE(report.stopped_early);
    EXPECT_EQ(report.answers, 77);
    *arrivals = report.arrivals;
    *log = svc.engine().SnapshotAnswers();
  };
  AnswerSet log_a(0, 0), log_b(0, 0);
  int64_t arrivals_a = 0, arrivals_b = 0;
  run(&log_a, &arrivals_a);
  run(&log_b, &arrivals_b);
  EXPECT_EQ(arrivals_a, arrivals_b);
  ExpectAnswerLogsIdentical(log_a, log_b);
}

/// What one hammering thread did to a backend.
struct ThreadTally {
  int64_t sessions = 0;
  int64_t leased = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
};

/// Calls StartSession / RequestTasks / SubmitAnswerBatch / EndSession /
/// Stats on `backend` from kThreads threads at once until it drains, then
/// checks that the books balance exactly. Each thread owns a disjoint set
/// of worker ids, abandons every fifth session (its leases go back through
/// EndSession) and answers the rest with fixed values.
void HammerConcurrently(ServingBackend* backend, int num_cells, int target) {
  constexpr int kThreads = 4;
  constexpr int kWorkersPerThread = 8;
  constexpr int kMaxSessionsPerThread = 20000;
  const Schema& schema = backend->schema();
  const int64_t expected = static_cast<int64_t>(num_cells) * target;

  std::vector<ThreadTally> tallies(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> waiting{kThreads};  // start gate: all threads at once
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadTally& tally = tallies[t];
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (int n = 0; n < kMaxSessionsPerThread && !backend->Drained(); ++n) {
        WorkerId worker = t + kThreads * (n % kWorkersPerThread);
        ServingBackend::SessionId session = backend->StartSession(worker);
        ++tally.sessions;
        std::vector<CellRef> tasks = backend->RequestTasks(session, 3);
        tally.leased += static_cast<int64_t>(tasks.size());
        if (n % 5 != 4) {
          std::vector<std::pair<CellRef, Value>> items;
          for (const CellRef& cell : tasks) {
            items.emplace_back(cell, schema.column(cell.col).type ==
                                             ColumnType::kCategorical
                                         ? Value::Categorical(t % 2)
                                         : Value::Continuous(0.25 * t));
          }
          for (const Status& st : backend->SubmitAnswerBatch(session, items)) {
            ++(st.ok() ? tally.accepted : tally.rejected);
          }
        }
        EXPECT_TRUE(backend->EndSession(session).ok());
        if (n % 7 == 0) {
          ServiceStats mid = backend->Stats();
          EXPECT_LE(mid.budget_spent, expected);
          EXPECT_GE(mid.budget_remaining, 0);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ThreadTally total;
  for (const ThreadTally& tally : tallies) {
    total.sessions += tally.sessions;
    total.leased += tally.leased;
    total.accepted += tally.accepted;
    total.rejected += tally.rejected;
  }
  EXPECT_TRUE(backend->Drained());
  EXPECT_EQ(total.accepted, expected);
  EXPECT_EQ(total.rejected, 0);
  ServiceStats stats = backend->Stats();
  EXPECT_EQ(stats.answers_accepted, expected);
  EXPECT_EQ(stats.answers_rejected, 0);
  EXPECT_EQ(stats.budget_spent, expected);
  EXPECT_EQ(stats.budget_remaining, 0);
  EXPECT_EQ(stats.tasks_finalized, num_cells);
  EXPECT_EQ(stats.tasks_open + stats.tasks_assigned + stats.tasks_answered,
            0);
  EXPECT_EQ(stats.sessions_started, total.sessions);
  EXPECT_EQ(stats.sessions_active, 0);
  EXPECT_EQ(stats.assignments, total.leased);
  EXPECT_EQ(backend->num_answers(), static_cast<uint64_t>(expected));
}

ServiceConfig HammerConfig(int target) {
  ServiceConfig config;
  config.target_answers_per_task = target;
  config.inference.method = "mv";
  config.inference.staleness_threshold = 100;
  return config;
}

TEST(ServiceIntegration, ConcurrentCallersKeepServiceAccountingExact) {
  sim::TableGeneratorOptions topt;
  topt.num_rows = 30;
  topt.num_cols = 5;
  SimWorld world(92, /*answers_per_task=*/0, topt);
  const int kTarget = 6;
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<LoopingPolicy>(), HammerConfig(kTarget));
  HammerConcurrently(&svc, world.world.truth.num_rows() *
                               world.world.schema.num_columns(),
                     kTarget);
}

TEST(ServiceIntegration, ConcurrentCallersKeepShardRouterAccountingExact) {
  sim::TableGeneratorOptions topt;
  topt.num_rows = 30;
  topt.num_cols = 5;
  SimWorld world(92, /*answers_per_task=*/0, topt);
  const int kTarget = 6;
  ShardRouterConfig config;
  config.num_shards = 2;
  config.base = HammerConfig(kTarget);
  config.policy_factory = [](int) { return std::make_unique<LoopingPolicy>(); };
  ShardRouter router(world.world.schema, world.world.truth.num_rows(),
                     std::move(config));
  HammerConcurrently(&router, world.world.truth.num_rows() *
                                  world.world.schema.num_columns(),
                     kTarget);
}

}  // namespace
}  // namespace tcrowd::service
