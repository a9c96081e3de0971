// The T-Crowd policies' background refit: each Refresh() installs the fit
// the previous Refresh() launched, replays the answers observed since onto
// it, and launches the next fit on the policy's worker thread. The installed
// state must be a pure function of the Refresh/Observe/Select sequence, so
// it is checked bit for bit against a synchronous reference built on the
// same one-behind schedule, and two services fed the same stream must grant
// the same leases.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assignment/background_refit.h"
#include "assignment/policies.h"
#include "platform/event_log.h"
#include "service/crowd_service.h"
#include "simulation/load_generator.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

namespace fs = std::filesystem;
using testing::SimWorld;

/// Exposes the installed state of the policy under test.
class ProbedStructurePolicy : public StructureAwarePolicy {
 public:
  using StructureAwarePolicy::StructureAwarePolicy;
  using InherentGainPolicy::state;
};

void ExpectSameState(const TCrowdState& got, const TCrowdState& want,
                     const std::string& where) {
  EXPECT_EQ(got.em_iterations, want.em_iterations) << where;
  EXPECT_EQ(got.row_difficulty, want.row_difficulty) << where;
  EXPECT_EQ(got.col_difficulty, want.col_difficulty) << where;
  EXPECT_EQ(got.worker_phi, want.worker_phi) << where;
  EXPECT_EQ(got.default_phi, want.default_phi) << where;
  ASSERT_EQ(got.posteriors.size(), want.posteriors.size()) << where;
  for (size_t c = 0; c < got.posteriors.size(); ++c) {
    const CellPosterior& g = got.posteriors[c];
    const CellPosterior& w = want.posteriors[c];
    ASSERT_EQ(g.probs, w.probs) << where << ", cell " << c;
    ASSERT_EQ(g.mean, w.mean) << where << ", cell " << c;
    ASSERT_EQ(g.variance, w.variance) << where << ", cell " << c;
  }
}

/// The one-behind schedule done synchronously: a cold fit at the first
/// Refresh(), then at every later Refresh() the warm fit of the answers
/// seen at the Refresh() before, plus the answers observed since.
class OneBehindReference {
 public:
  explicit OneBehindReference(TCrowdOptions options)
      : model_(std::move(options)) {}

  void Refresh(const Schema& schema, const AnswerSet& answers) {
    if (launched_ == nullptr) {
      state_ = model_.Fit(schema, answers);
    } else {
      state_ = model_.Fit(schema, *launched_, nullptr, &launched_warm_);
      for (const Answer& answer : observed_) {
        ApplyIncrementalAnswer(answer, &state_);
      }
    }
    observed_.clear();
    launched_ = std::make_unique<AnswerSet>(answers);
    launched_warm_ = TCrowdWarmStart::From(state_);
  }

  void Observe(const Answer& answer) {
    ApplyIncrementalAnswer(answer, &state_);
    observed_.push_back(answer);
  }

  const TCrowdState& state() const { return state_; }

 private:
  TCrowdModel model_;
  TCrowdState state_;
  std::unique_ptr<AnswerSet> launched_;
  TCrowdWarmStart launched_warm_;
  std::vector<Answer> observed_;
};

TEST(BackgroundRefit, StructurePolicyMatchesSynchronousOneBehindReference) {
  SimWorld w(83, /*answers_per_task=*/1);
  const Schema& schema = w.world.schema;
  ProbedStructurePolicy policy(TCrowdOptions::Fast());
  OneBehindReference reference(TCrowdOptions::Fast());
  policy.Refresh(schema, w.answers);
  reference.Refresh(schema, w.answers);
  ExpectSameState(policy.state(), reference.state(), "first refresh");

  constexpr int kRefreshEvery = 24;
  int since_refresh = 0, refreshes = 0;
  for (int arrival = 0; arrival < 200; ++arrival) {
    WorkerId worker = w.crowd.NextWorker();
    // Selecting while the next fit runs on the worker thread.
    for (const CellRef& cell : policy.SelectTasks(schema, w.answers, worker,
                                                  2)) {
      Answer answer{worker, cell, w.crowd.Answer(worker, cell)};
      w.answers.Add(answer);
      policy.Observe(schema, w.answers, answer);
      reference.Observe(answer);
      ++since_refresh;
    }
    if (since_refresh >= kRefreshEvery) {
      policy.Refresh(schema, w.answers);
      reference.Refresh(schema, w.answers);
      since_refresh = 0;
      ++refreshes;
      ExpectSameState(policy.state(), reference.state(),
                      "refresh " + std::to_string(refreshes));
    }
  }
  ASSERT_GE(refreshes, 8);
  // The observed answers since the last launch are applied in place too.
  ExpectSameState(policy.state(), reference.state(), "after the last answer");
}

TEST(BackgroundRefit, FailedFitKeepsTheInstalledState) {
  SimWorld w(84, /*answers_per_task=*/2);
  const Schema& schema = w.world.schema;
  TCrowdModel model(TCrowdOptions::Fast());
  std::atomic<int> calls{0};
  BackgroundRefit refit(
      TCrowdOptions::Fast(),
      [&](const Schema& s, const AnswerMatrixSnapshot& snapshot,
          const TCrowdWarmStart* warm) {
        // The first launch (call 2) fails; every other fit is real.
        if (++calls == 2) throw std::runtime_error("injected fit failure");
        return model.Fit(s, snapshot, nullptr, warm);
      });
  refit.Refresh(schema, w.answers);
  TCrowdState expected = model.Fit(schema, w.answers);
  ExpectSameState(refit.state(), expected, "cold fit");

  WorkerId worker = w.crowd.NextWorker();
  CellRef cell{0, 0};
  Answer answer{worker, cell, w.crowd.Answer(worker, cell)};
  w.answers.Add(answer);
  refit.Observe(answer);
  ApplyIncrementalAnswer(answer, &expected);

  // Installing the failed fit keeps the cold fit plus the observed answer.
  refit.Refresh(schema, w.answers);
  ASSERT_TRUE(refit.fitted());
  ExpectSameState(refit.state(), expected, "after the failed fit");

  // The launch that followed the failure installs normally.
  TCrowdWarmStart warm = TCrowdWarmStart::From(expected);
  refit.Refresh(schema, w.answers);
  ExpectSameState(refit.state(), model.Fit(schema, w.answers, nullptr, &warm),
                  "after recovery");
}

TEST(BackgroundRefit, DestroyingWithAFitInFlightWaitsForItBriefly) {
  SimWorld w(85, /*answers_per_task=*/2);
  const Schema& schema = w.world.schema;
  TCrowdModel model(TCrowdOptions::Fast());
  std::atomic<bool> slow_fit_done{false};
  auto begin = std::chrono::steady_clock::now();
  {
    BackgroundRefit refit(
        TCrowdOptions::Fast(),
        [&](const Schema& s, const AnswerMatrixSnapshot& snapshot,
            const TCrowdWarmStart* warm) {
          TCrowdState state = model.Fit(s, snapshot, nullptr, warm);
          if (warm != nullptr) {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            slow_fit_done = true;
          }
          return state;
        });
    refit.Refresh(schema, w.answers);  // cold, then launches the slow fit
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
  EXPECT_TRUE(slow_fit_done) << "the destructor must not abandon the fit";
  EXPECT_LT(seconds, 10.0);

  // A real policy with a real fit in flight goes down just as cleanly.
  begin = std::chrono::steady_clock::now();
  {
    StructureAwarePolicy policy(TCrowdOptions::Fast());
    policy.Refresh(schema, w.answers);
    policy.Refresh(schema, w.answers);
  }
  seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          begin)
                .count();
  EXPECT_LT(seconds, 10.0);
}

// Runs one structure-policy service over a fresh copy of the world and
// returns its lease decisions and Finalize digest.
struct ServedRun {
  std::vector<RecordedEvent> leases;
  uint64_t digest = 0;
};

ServedRun ServeStructureStream(const std::string& log_path) {
  sim::TableGeneratorOptions topt;
  topt.num_rows = 20;
  topt.num_cols = 4;
  topt.categorical_ratio = 0.5;
  sim::CrowdOptions copt = SimWorld::DefaultCrowd();
  copt.num_workers = 12;
  SimWorld world(91, /*answers_per_task=*/0, topt, copt);

  auto recorder = EventRecorder::Open(log_path);
  EXPECT_TRUE(recorder.ok()) << recorder.status().ToString();
  service::ServiceConfig config;
  config.target_answers_per_task = 4;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 48;
  config.inference.num_shards = 2;
  config.recorder = recorder->get();

  ServedRun run;
  {
    service::CrowdService svc(
        world.world.schema, world.world.truth.num_rows(),
        std::make_unique<StructureAwarePolicy>(TCrowdOptions::Fast()),
        config);
    EXPECT_TRUE(svc.engine().args().async_refresh);
    sim::LoadGeneratorOptions load;
    load.tasks_per_request = 2;
    load.abandon_prob = 0.1;
    load.seed = 5;
    sim::LoadGenerator generator(&world.crowd, &svc, load);
    sim::LoadReport report = generator.Run();
    EXPECT_EQ(report.rejected, 0);
    EXPECT_TRUE(svc.Drained());
    run.digest = TruthDigest(svc.Finalize().estimated_truth);
  }
  EXPECT_TRUE((*recorder)->Close().ok());

  EventLogReplay log;
  EXPECT_TRUE(ReadEventLogFile(log_path, &log).ok());
  for (const RecordedEvent& event : log.events) {
    if (event.type == EventType::kLeases) run.leases.push_back(event);
  }
  return run;
}

TEST(BackgroundRefit, ServicesOnOneStreamGrantIdenticalLeases) {
  fs::path dir = fs::path(::testing::TempDir()) / "background_refit";
  fs::create_directories(dir);
  ServedRun a = ServeStructureStream((dir / "a.events").string());
  ServedRun b = ServeStructureStream((dir / "b.events").string());
  ASSERT_GT(a.leases.size(), 40u);
  ASSERT_EQ(a.leases.size(), b.leases.size());
  for (size_t n = 0; n < a.leases.size(); ++n) {
    EXPECT_EQ(a.leases[n].session, b.leases[n].session) << "lease " << n;
    ASSERT_EQ(a.leases[n].cells.size(), b.leases[n].cells.size())
        << "lease " << n;
    for (size_t c = 0; c < a.leases[n].cells.size(); ++c) {
      EXPECT_EQ(a.leases[n].cells[c].row, b.leases[n].cells[c].row)
          << "lease " << n;
      EXPECT_EQ(a.leases[n].cells[c].col, b.leases[n].cells[c].col)
          << "lease " << n;
    }
  }
  EXPECT_EQ(a.digest, b.digest);
}

}  // namespace
}  // namespace tcrowd
