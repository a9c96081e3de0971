#include "service/crowd_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "assignment/policies.h"
#include "data/schema.h"

namespace tcrowd::service {
namespace {

Schema SmallSchema() {
  return Schema{{Schema::MakeCategorical("cat", {"x", "y", "z"}),
                 Schema::MakeContinuous("num", 0.0, 10.0)}};
}

ServiceConfig CheapConfig(int target = 2) {
  ServiceConfig config;
  config.target_answers_per_task = target;
  // Majority voting keeps unit tests free of EM fits.
  config.inference.method = "mv";
  config.inference.staleness_threshold = 1000000;
  config.router.backfill = BackfillStrategy::kLeastAnswered;
  config.router.refresh_every_answers = 1000000;
  return config;
}

std::unique_ptr<CrowdService> MakeService(int num_rows = 4, int target = 2) {
  return std::make_unique<CrowdService>(SmallSchema(), num_rows,
                                        std::make_unique<LoopingPolicy>(),
                                        CheapConfig(target));
}

Value ValueFor(const Schema& schema, CellRef cell) {
  return schema.column(cell.col).type == ColumnType::kCategorical
             ? Value::Categorical(1)
             : Value::Continuous(3.5);
}

TEST(CrowdService, SessionLifecycle) {
  auto svc = MakeService();
  CrowdService::SessionId session = svc->StartSession(11);

  std::vector<CellRef> tasks = svc->RequestTasks(session, 2);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(svc->task_state(tasks[0]), TaskState::kAssigned);

  EXPECT_TRUE(svc->SubmitAnswer(session, tasks[0],
                                ValueFor(svc->schema(), tasks[0]))
                  .ok());
  EXPECT_EQ(svc->task_state(tasks[0]), TaskState::kAnswered);
  EXPECT_EQ(svc->AnswerCount(tasks[0]), 1);

  // Ending the session releases the second, unanswered lease.
  EXPECT_TRUE(svc->EndSession(session).ok());
  EXPECT_EQ(svc->task_state(tasks[1]), TaskState::kOpen);

  ServiceStats stats = svc->Stats();
  EXPECT_EQ(stats.sessions_started, 1);
  EXPECT_EQ(stats.sessions_active, 0);
  EXPECT_EQ(stats.answers_accepted, 1);
}

/// Declines every request, so every lease comes from the backfill.
class DecliningPolicy : public AssignmentPolicy {
 public:
  std::string name() const override { return "Declining"; }
  void Refresh(const Schema&, const AnswerSet&) override {}
  bool SelectTaskExcluding(const Schema&, const AnswerSet&, WorkerId,
                           const std::vector<CellRef>&, CellRef*) override {
    return false;
  }
};

TEST(CrowdService, CountsBackfilledLeasesInTheRegistry) {
  CrowdService svc(SmallSchema(), 4, std::make_unique<DecliningPolicy>(),
                   CheapConfig());
  EXPECT_EQ(svc.RequestTasks(svc.StartSession(1), 3).size(), 3u);
  EXPECT_EQ(svc.RequestTasks(svc.StartSession(2), 2).size(), 2u);
  EXPECT_EQ(svc.metrics().counter("service.tasks_backfilled").value(), 5);
  EXPECT_EQ(svc.metrics().counter("service.tasks_assigned").value(), 5);

  // A policy that fills every request backfills nothing.
  auto looping = MakeService();
  EXPECT_EQ(looping->RequestTasks(looping->StartSession(1), 3).size(), 3u);
  EXPECT_EQ(looping->metrics().counter("service.tasks_backfilled").value(), 0);
}

TEST(CrowdService, RejectsAnswersWithoutLease) {
  auto svc = MakeService();
  CrowdService::SessionId session = svc->StartSession(1);
  Status st = svc->SubmitAnswer(session, CellRef{0, 0}, Value::Categorical(0));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(svc->Stats().answers_rejected, 1);
}

TEST(CrowdService, RejectsUnknownSessionAndDoubleEnd) {
  auto svc = MakeService();
  EXPECT_EQ(svc->SubmitAnswer(999, CellRef{0, 0}, Value::Categorical(0)).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(svc->RequestTasks(999, 1).empty());
  CrowdService::SessionId session = svc->StartSession(1);
  EXPECT_TRUE(svc->EndSession(session).ok());
  EXPECT_EQ(svc->EndSession(session).code(), StatusCode::kNotFound);
}

TEST(CrowdService, RejectsMistypedValues) {
  auto svc = MakeService();
  CrowdService::SessionId session = svc->StartSession(1);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 8);
  auto cat = std::find_if(tasks.begin(), tasks.end(),
                          [](CellRef c) { return c.col == 0; });
  ASSERT_NE(cat, tasks.end());

  // Continuous value into a categorical column.
  EXPECT_EQ(svc->SubmitAnswer(session, *cat, Value::Continuous(1.0)).code(),
            StatusCode::kInvalidArgument);
  // Out-of-range label.
  EXPECT_EQ(svc->SubmitAnswer(session, *cat, Value::Categorical(7)).code(),
            StatusCode::kInvalidArgument);
  // Missing value.
  EXPECT_EQ(svc->SubmitAnswer(session, *cat, Value()).code(),
            StatusCode::kInvalidArgument);
  // The lease survives rejections and a correct value still lands.
  EXPECT_TRUE(svc->SubmitAnswer(session, *cat, Value::Categorical(2)).ok());
}

TEST(CrowdService, FinalizesTasksAtTargetAndStopsAssigningThem) {
  auto svc = MakeService(/*num_rows=*/2, /*target=*/2);
  CellRef cell{0, 0};
  for (WorkerId w = 0; w < 2; ++w) {
    CrowdService::SessionId session = svc->StartSession(w);
    // Lease everything assignable so we certainly hold `cell`.
    std::vector<CellRef> tasks = svc->RequestTasks(session, 4);
    ASSERT_TRUE(std::find(tasks.begin(), tasks.end(), cell) != tasks.end());
    EXPECT_TRUE(
        svc->SubmitAnswer(session, cell, Value::Categorical(0)).ok());
    EXPECT_TRUE(svc->EndSession(session).ok());
  }
  EXPECT_EQ(svc->task_state(cell), TaskState::kFinalized);
  EXPECT_EQ(svc->Stats().tasks_finalized, 1);

  // A fresh worker can never lease the finalized cell again.
  CrowdService::SessionId session = svc->StartSession(50);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 100);
  EXPECT_TRUE(std::find(tasks.begin(), tasks.end(), cell) == tasks.end());
}

TEST(CrowdService, PerTaskCommitmentCapsConcurrentLeases) {
  // target=2: two sessions may hold the same cell, a third may not.
  auto svc = MakeService(/*num_rows=*/1, /*target=*/2);
  CrowdService::SessionId s1 = svc->StartSession(1);
  CrowdService::SessionId s2 = svc->StartSession(2);
  CrowdService::SessionId s3 = svc->StartSession(3);
  EXPECT_EQ(svc->RequestTasks(s1, 2).size(), 2u);
  EXPECT_EQ(svc->RequestTasks(s2, 2).size(), 2u);
  // Both cells now carry 2 outstanding leases — fully committed.
  EXPECT_TRUE(svc->RequestTasks(s3, 2).empty());

  // An abandoned session refunds its commitment.
  EXPECT_TRUE(svc->EndSession(s1).ok());
  EXPECT_EQ(svc->RequestTasks(s3, 2).size(), 2u);
}

TEST(CrowdService, SameWorkerConcurrentSessionsNeverShareACell) {
  // One worker, two live sessions (e.g. two browser tabs): target=3 leaves
  // per-task headroom, but the worker's own in-flight leases must still be
  // off limits — otherwise one worker could answer a cell twice.
  auto svc = MakeService(/*num_rows=*/1, /*target=*/3);
  CrowdService::SessionId s1 = svc->StartSession(42);
  CrowdService::SessionId s2 = svc->StartSession(42);
  std::vector<CellRef> first = svc->RequestTasks(s1, 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(svc->RequestTasks(s2, 2).empty());

  // A different worker still gets the remaining headroom.
  CrowdService::SessionId s3 = svc->StartSession(43);
  EXPECT_EQ(svc->RequestTasks(s3, 2).size(), 2u);
}

TEST(CrowdService, SessionNeverLeasesSameCellTwice) {
  auto svc = MakeService(/*num_rows=*/1, /*target=*/3);
  CrowdService::SessionId session = svc->StartSession(1);
  std::vector<CellRef> first = svc->RequestTasks(session, 2);
  ASSERT_EQ(first.size(), 2u);
  // Both cells are leased to this session; target 3 leaves headroom for
  // OTHER workers, but this session must not double-lease.
  EXPECT_TRUE(svc->RequestTasks(session, 2).empty());
}

TEST(CrowdService, GlobalBudgetExhaustionDrainsService) {
  ServiceConfig config = CheapConfig(/*target=*/5);
  config.max_total_answers = 3;
  auto svc = std::make_unique<CrowdService>(
      SmallSchema(), 4, std::make_unique<LoopingPolicy>(), config);

  CrowdService::SessionId session = svc->StartSession(1);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 10);
  EXPECT_EQ(tasks.size(), 3u);  // capped by the global budget
  EXPECT_TRUE(svc->Drained());
  EXPECT_TRUE(svc->RequestTasks(svc->StartSession(2), 1).empty());

  for (const CellRef& cell : tasks) {
    EXPECT_TRUE(
        svc->SubmitAnswer(session, cell, ValueFor(svc->schema(), cell)).ok());
  }
  ServiceStats stats = svc->Stats();
  EXPECT_EQ(stats.budget_spent, 3);
  EXPECT_EQ(stats.budget_remaining, 0);
}

TEST(CrowdService, DrainedWhenEveryTaskFinalized) {
  auto svc = MakeService(/*num_rows=*/1, /*target=*/1);
  CrowdService::SessionId session = svc->StartSession(1);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 2);
  ASSERT_EQ(tasks.size(), 2u);
  for (const CellRef& cell : tasks) {
    EXPECT_TRUE(
        svc->SubmitAnswer(session, cell, ValueFor(svc->schema(), cell)).ok());
  }
  EXPECT_TRUE(svc->Drained());
  EXPECT_EQ(svc->Stats().tasks_finalized, 2);
  EXPECT_EQ(svc->Stats().budget_remaining, 0);
}

TEST(CrowdService, MetricsCountersTrackTraffic) {
  auto svc = MakeService();
  CrowdService::SessionId session = svc->StartSession(3);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 3);
  for (const CellRef& cell : tasks) {
    svc->SubmitAnswer(session, cell, ValueFor(svc->schema(), cell));
  }
  svc->EndSession(session);

  auto counters = svc->metrics().CounterValues();
  auto value = [&](const std::string& name) -> int64_t {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_EQ(value("service.sessions_started"), 1);
  EXPECT_EQ(value("service.sessions_ended"), 1);
  EXPECT_EQ(value("service.tasks_assigned"), 3);
  EXPECT_EQ(value("service.answers_accepted"), 3);
  EXPECT_EQ(svc->metrics().latency("service.request_tasks").count(), 1);
  EXPECT_EQ(svc->metrics().latency("service.submit_answer").count(), 3);
}

TEST(CrowdService, SubmitAnswerBatchMixedOutcomesKeepAccounting) {
  auto svc = MakeService(/*num_rows=*/4, /*target=*/3);
  CrowdService::SessionId session = svc->StartSession(7);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 3);
  ASSERT_EQ(tasks.size(), 3u);

  // One page: [ok, ok, wrong-type reject, duplicate-of-first reject,
  // no-lease reject] — accounting must match five SubmitAnswer calls.
  std::vector<std::pair<CellRef, Value>> items = {
      {tasks[0], ValueFor(svc->schema(), tasks[0])},
      {tasks[1], ValueFor(svc->schema(), tasks[1])},
      {tasks[2], tasks[2].col == 0 ? Value::Continuous(1.0)
                                   : Value::Categorical(0)},
      {tasks[0], ValueFor(svc->schema(), tasks[0])},
      {CellRef{3, 1}, Value::Continuous(2.0)},
  };
  std::vector<Status> statuses = svc->SubmitAnswerBatch(session, items);
  ASSERT_EQ(statuses.size(), items.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(statuses[2].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(statuses[3].code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(statuses[4].code(), StatusCode::kFailedPrecondition);

  ServiceStats stats = svc->Stats();
  EXPECT_EQ(stats.answers_accepted, 2);
  EXPECT_EQ(stats.answers_rejected, 3);
  EXPECT_EQ(svc->AnswerCount(tasks[0]), 1);
  EXPECT_EQ(svc->AnswerCount(tasks[1]), 1);
  EXPECT_EQ(svc->engine().num_answers(), 2u);
  EXPECT_EQ(svc->metrics().counter("service.answer_batches").value(), 1);
  // The wrong-typed answer's lease survives; re-answering it works.
  EXPECT_TRUE(svc->SubmitAnswer(session, tasks[2],
                                ValueFor(svc->schema(), tasks[2]))
                  .ok());
}

TEST(CrowdService, SubmitAnswerBatchUnknownSessionRejectsWholePage) {
  auto svc = MakeService();
  std::vector<std::pair<CellRef, Value>> items = {
      {CellRef{0, 0}, Value::Categorical(0)},
      {CellRef{0, 1}, Value::Continuous(1.0)},
  };
  std::vector<Status> statuses = svc->SubmitAnswerBatch(999, items);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].code(), StatusCode::kNotFound);
  EXPECT_EQ(statuses[1].code(), StatusCode::kNotFound);
  EXPECT_EQ(svc->Stats().answers_rejected, 2);
  EXPECT_EQ(svc->engine().num_answers(), 0u);
}

TEST(CrowdService, RetractAnswerRefundsBudgetAndReopensFinalizedTask) {
  auto svc = MakeService(/*num_rows=*/2, /*target=*/2);
  CellRef cell{0, 0};
  for (WorkerId w = 0; w < 2; ++w) {
    CrowdService::SessionId session = svc->StartSession(w);
    std::vector<CellRef> tasks = svc->RequestTasks(session, 4);
    ASSERT_TRUE(std::find(tasks.begin(), tasks.end(), cell) != tasks.end());
    EXPECT_TRUE(svc->SubmitAnswer(session, cell, Value::Categorical(0)).ok());
    EXPECT_TRUE(svc->EndSession(session).ok());
  }
  ASSERT_EQ(svc->task_state(cell), TaskState::kFinalized);
  int64_t spent_before = svc->Stats().budget_spent;

  ASSERT_TRUE(svc->RetractAnswer(0, cell).ok());

  // The ledger rolled back one answer everywhere it is counted.
  EXPECT_EQ(svc->AnswerCount(cell), 1);
  EXPECT_EQ(svc->task_state(cell), TaskState::kAnswered);
  ServiceStats stats = svc->Stats();
  EXPECT_EQ(stats.answers_retracted, 1);
  EXPECT_EQ(stats.budget_spent, spent_before - 1);
  EXPECT_EQ(stats.tasks_finalized, 0);
  EXPECT_EQ(svc->metrics().counter("service.answers_retracted").value(), 1);
  EXPECT_EQ(svc->engine().num_retractions(), 1u);

  // The definalized task is assignable again: a fresh worker backfills it
  // and the task re-finalizes at target.
  CrowdService::SessionId session = svc->StartSession(9);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 8);
  ASSERT_TRUE(std::find(tasks.begin(), tasks.end(), cell) != tasks.end());
  EXPECT_TRUE(svc->SubmitAnswer(session, cell, Value::Categorical(1)).ok());
  EXPECT_EQ(svc->task_state(cell), TaskState::kFinalized);
  EXPECT_EQ(svc->Stats().budget_spent, spent_before);
}

TEST(CrowdService, RetractAnswerRevivesADrainedBudget) {
  ServiceConfig config = CheapConfig(/*target=*/5);
  config.max_total_answers = 2;
  auto svc = std::make_unique<CrowdService>(
      SmallSchema(), 4, std::make_unique<LoopingPolicy>(), config);
  CrowdService::SessionId session = svc->StartSession(1);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 10);
  ASSERT_EQ(tasks.size(), 2u);  // budget-capped
  for (const CellRef& cell : tasks) {
    ASSERT_TRUE(
        svc->SubmitAnswer(session, cell, ValueFor(svc->schema(), cell)).ok());
  }
  EXPECT_TRUE(svc->EndSession(session).ok());
  ASSERT_TRUE(svc->Drained());

  // A retraction refunds both the spend and the commitment, so the freed
  // slot is leasable again — the router backfills what the disavowal broke.
  ASSERT_TRUE(svc->RetractAnswer(1, tasks[0]).ok());
  EXPECT_FALSE(svc->Drained());
  EXPECT_EQ(svc->Stats().budget_remaining, 1);
  CrowdService::SessionId fresh = svc->StartSession(2);
  EXPECT_EQ(svc->RequestTasks(fresh, 5).size(), 1u);
}

TEST(CrowdService, RetractAnswerRejectsUnknownTargetsCleanly) {
  auto svc = MakeService();
  // No answer at all on the cell.
  EXPECT_EQ(svc->RetractAnswer(1, CellRef{0, 0}).code(),
            StatusCode::kNotFound);
  // Out-of-range cells refuse before touching anything.
  EXPECT_EQ(svc->RetractAnswer(1, CellRef{-1, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc->RetractAnswer(1, CellRef{0, 99}).code(),
            StatusCode::kInvalidArgument);

  CrowdService::SessionId session = svc->StartSession(7);
  std::vector<CellRef> tasks = svc->RequestTasks(session, 1);
  ASSERT_EQ(tasks.size(), 1u);
  ASSERT_TRUE(svc->SubmitAnswer(session, tasks[0],
                                ValueFor(svc->schema(), tasks[0]))
                  .ok());
  // The WRONG worker cannot retract another worker's answer.
  EXPECT_EQ(svc->RetractAnswer(8, tasks[0]).code(), StatusCode::kNotFound);
  // The right worker can — exactly once.
  EXPECT_TRUE(svc->RetractAnswer(7, tasks[0]).ok());
  EXPECT_EQ(svc->RetractAnswer(7, tasks[0]).code(), StatusCode::kNotFound);

  // Failed retractions never moved the ledger: one gross accept, one
  // retraction, zero net spend.
  ServiceStats stats = svc->Stats();
  EXPECT_EQ(stats.answers_retracted, 1);
  EXPECT_EQ(stats.answers_accepted, 0);
  EXPECT_EQ(svc->metrics().counter("service.answers_accepted").value(), 1);
  EXPECT_EQ(svc->AnswerCount(tasks[0]), 0);
  // The live export excludes the retracted answer even before the seal
  // that physically removes it.
  EXPECT_EQ(svc->engine().SnapshotAnswers().size(), 0u);
}

TEST(CrowdService, LeaseTimeoutExpiresAbandonedSessionAndRefundsBudget) {
  int64_t fake_now = 0;
  ServiceConfig config = CheapConfig();
  config.session_lease_timeout_seconds = 10.0;
  config.clock_nanos = [&fake_now] { return fake_now; };
  CrowdService svc(SmallSchema(), /*num_rows=*/4,
                   std::make_unique<LoopingPolicy>(), config);

  CrowdService::SessionId session = svc.StartSession(7);
  std::vector<CellRef> tasks = svc.RequestTasks(session, 3);
  ASSERT_EQ(tasks.size(), 3u);
  int64_t committed_budget = svc.Stats().budget_remaining;
  EXPECT_EQ(svc.task_state(tasks[0]), TaskState::kAssigned);

  // Just inside the deadline: nothing expires.
  fake_now += 9'000'000'000;
  EXPECT_EQ(svc.ExpireStaleSessions(), 0);
  EXPECT_EQ(svc.Stats().sessions_active, 1);

  // Past the deadline: the worker vanished without EndSession. The sweep
  // releases all three leases, refunds their commitments, and the tasks
  // become assignable again.
  fake_now += 2'000'000'000;
  EXPECT_EQ(svc.ExpireStaleSessions(), 1);
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.sessions_active, 0);
  EXPECT_EQ(stats.sessions_expired, 1);
  EXPECT_EQ(stats.budget_remaining, committed_budget + 3);
  for (const CellRef& cell : tasks) {
    EXPECT_EQ(svc.task_state(cell), TaskState::kOpen);
  }

  // Late answers from the expired session are rejected like any unknown
  // session's.
  Status st = svc.SubmitAnswer(session, tasks[0],
                               ValueFor(svc.schema(), tasks[0]));
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(CrowdService, ActivityRefreshesLeaseDeadline) {
  int64_t fake_now = 0;
  ServiceConfig config = CheapConfig();
  config.session_lease_timeout_seconds = 10.0;
  config.clock_nanos = [&fake_now] { return fake_now; };
  CrowdService svc(SmallSchema(), /*num_rows=*/4,
                   std::make_unique<LoopingPolicy>(), config);

  CrowdService::SessionId session = svc.StartSession(7);
  std::vector<CellRef> tasks = svc.RequestTasks(session, 1);
  ASSERT_EQ(tasks.size(), 1u);

  // Submitting an answer at t=8s renews the lease, so t=16s is still
  // within the deadline of the renewed session.
  fake_now += 8'000'000'000;
  EXPECT_TRUE(
      svc.SubmitAnswer(session, tasks[0], ValueFor(svc.schema(), tasks[0]))
          .ok());
  fake_now += 8'000'000'000;
  EXPECT_EQ(svc.ExpireStaleSessions(), 0);
  EXPECT_EQ(svc.Stats().sessions_active, 1);

  // 11s of silence after the submit ends it.
  fake_now += 3'000'000'000;
  EXPECT_EQ(svc.ExpireStaleSessions(), 1);
  EXPECT_EQ(svc.Stats().sessions_active, 0);
}

TEST(CrowdService, ExpiryIsLazyOnRequestPaths) {
  int64_t fake_now = 0;
  ServiceConfig config = CheapConfig();
  config.session_lease_timeout_seconds = 5.0;
  config.clock_nanos = [&fake_now] { return fake_now; };
  CrowdService svc(SmallSchema(), /*num_rows=*/4,
                   std::make_unique<LoopingPolicy>(), config);

  CrowdService::SessionId stale = svc.StartSession(1);
  ASSERT_EQ(svc.RequestTasks(stale, 2).size(), 2u);

  // A fresh worker arriving after the deadline triggers the sweep as a
  // side effect of StartSession; the stale worker's cells are assignable
  // to it again.
  fake_now += 6'000'000'000;
  CrowdService::SessionId fresh = svc.StartSession(2);
  EXPECT_EQ(svc.Stats().sessions_expired, 1);
  EXPECT_EQ(svc.RequestTasks(fresh, 8).size(), 8u);
}

/// Threads of this process, read from /proc/self/task once two reads 5 ms
/// apart agree (a thread joined just before may linger there briefly).
int SettledThreadCount() {
  auto count = [] {
    return static_cast<int>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator()));
  };
  int last = count();
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    int now = count();
    if (now == last) return now;
    last = now;
  }
  return last;
}

// A service starts one refresh worker (the engine never runs two refreshes
// at once) plus num_shards EM threads when it shards the EM at all.
TEST(CrowdService, StartsOneRefreshWorkerPlusTheEmShards) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  for (const auto& [num_shards, expected] : {std::pair{1, 1}, {2, 3}}) {
    ServiceConfig config = CheapConfig();
    config.inference.num_shards = num_shards;
    const int before = SettledThreadCount();
    {
      CrowdService svc(SmallSchema(), 4, std::make_unique<LoopingPolicy>(),
                       config);
      EXPECT_EQ(SettledThreadCount() - before, expected)
          << "num_shards=" << num_shards;
    }
    EXPECT_EQ(SettledThreadCount(), before) << "num_shards=" << num_shards;
  }
}

}  // namespace
}  // namespace tcrowd::service
