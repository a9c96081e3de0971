#include "service/task_router.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "platform/trace.h"

namespace tcrowd::service {

const char* BackfillStrategyName(BackfillStrategy strategy) {
  switch (strategy) {
    case BackfillStrategy::kNone:
      return "none";
    case BackfillStrategy::kLeastAnswered:
      return "least-answered";
    case BackfillStrategy::kRandom:
      return "random";
  }
  return "?";
}

TaskRouter::TaskRouter(std::unique_ptr<AssignmentPolicy> policy,
                       RouterOptions options)
    : policy_(std::move(policy)),
      options_(options),
      rng_(options.seed) {
  TCROWD_CHECK(policy_ != nullptr);
  options_.refresh_every_answers = std::max(1, options_.refresh_every_answers);
}

std::vector<CellRef> TaskRouter::Route(const Schema& schema,
                                       const AnswerSet& answers,
                                       WorkerId worker, int k,
                                       const std::vector<CellRef>& unavailable) {
  if (k <= 0) return {};
  if (!refreshed_once_ && !answers.empty()) {
    policy_->Refresh(schema, answers);
    refreshed_once_ = true;
  }
  std::vector<CellRef> picked =
      policy_->SelectTasksExcluding(schema, answers, worker, unavailable, k);
  const size_t policy_picked = picked.size();
  if (static_cast<int>(picked.size()) < k &&
      options_.backfill != BackfillStrategy::kNone) {
    Backfill(answers, worker, k, unavailable, &picked);
  }
  TCROWD_TRACE(kRouter, kDebug, "route", policy_picked,
               picked.size() - policy_picked);
  return picked;
}

void TaskRouter::Backfill(const AnswerSet& answers, WorkerId worker, int k,
                          const std::vector<CellRef>& unavailable,
                          std::vector<CellRef>* picked) {
  // A policy may come up short even though legal candidates remain (e.g. it
  // declines cells whose gain is degenerate). Keep the worker busy anyway.
  std::vector<CellRef> exclude = unavailable;
  exclude.insert(exclude.end(), picked->begin(), picked->end());
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  if (candidates.empty()) return;
  rng_.Shuffle(&candidates);  // random tie-break among equals
  if (options_.backfill == BackfillStrategy::kLeastAnswered) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&answers](const CellRef& a, const CellRef& b) {
                       return answers.CellAnswerCount(a.row, a.col) <
                              answers.CellAnswerCount(b.row, b.col);
                     });
  }
  for (const CellRef& cell : candidates) {
    if (static_cast<int>(picked->size()) >= k) break;
    picked->push_back(cell);
    ++backfilled_;
  }
}

void TaskRouter::OnAnswer(const Schema& schema, const AnswerSet& answers,
                          const Answer& answer) {
  policy_->Observe(schema, answers, answer);
  ++answers_since_refresh_;
  if (answers_since_refresh_ >= options_.refresh_every_answers) {
    policy_->Refresh(schema, answers);
    refreshed_once_ = true;
    ++refresh_count_;
    answers_since_refresh_ = 0;
  }
}

}  // namespace tcrowd::service
