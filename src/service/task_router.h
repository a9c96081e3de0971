#ifndef TCROWD_SERVICE_TASK_ROUTER_H_
#define TCROWD_SERVICE_TASK_ROUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "assignment/policy.h"
#include "common/rng.h"

namespace tcrowd::service {

/// What the router does when the policy cannot (or will not) fill a
/// worker's request — e.g. every remaining candidate is leased out to other
/// in-flight sessions, or the policy's model considers nothing informative.
enum class BackfillStrategy {
  kNone,           ///< Hand back fewer tasks (possibly zero).
  kLeastAnswered,  ///< Top up with the least-answered assignable cells.
  kRandom,         ///< Top up with uniformly random assignable cells.
};

const char* BackfillStrategyName(BackfillStrategy strategy);

struct RouterOptions {
  BackfillStrategy backfill = BackfillStrategy::kLeastAnswered;
  /// The policy is refreshed (Policy::Refresh) after this many routed
  /// answers; between refreshes Observe keeps its model current per cell.
  int refresh_every_answers = 32;
  /// Tie-breaking / backfill randomization seed.
  uint64_t seed = 1;
};

/// Adapts the batch-experiment AssignmentPolicy interface to per-worker
/// online requests: the service asks for up to k cells for one worker, with
/// the currently unassignable cells (leased or finalized) excluded, and the
/// router answers from the policy plus a pluggable backfill.
///
/// Ownership: the router owns the policy it adapts for its whole lifetime.
///
/// Thread-safety: not thread-safe by itself — CrowdService serializes calls
/// behind its service mutex (policies keep heavyweight incremental model
/// state).
class TaskRouter {
 public:
  /// Takes ownership of `policy` (must be non-null).
  TaskRouter(std::unique_ptr<AssignmentPolicy> policy, RouterOptions options);

  /// Picks up to `k` distinct cells for `worker`, never returning a cell in
  /// `unavailable` nor one the worker already answered. The first call with
  /// answers present refreshes the policy, which for the T-Crowd policies
  /// is their one synchronous cold EM fit.
  std::vector<CellRef> Route(const Schema& schema, const AnswerSet& answers,
                             WorkerId worker, int k,
                             const std::vector<CellRef>& unavailable);

  /// Feeds one accepted answer back into the policy (Observe) and
  /// refreshes it every refresh_every_answers-th call. A T-Crowd policy's
  /// refresh costs the caller a snapshot of the answers and the install of
  /// the fit its previous refresh launched; the EM itself runs on the
  /// policy's worker thread (AssignmentPolicy::Refresh).
  void OnAnswer(const Schema& schema, const AnswerSet& answers,
                const Answer& answer);

  const AssignmentPolicy& policy() const { return *policy_; }
  std::string name() const { return policy_->name(); }
  int refresh_count() const { return refresh_count_; }
  int64_t backfilled() const { return backfilled_; }

 private:
  /// Backfill candidates: assignable cells the worker has not answered,
  /// ordered per the strategy.
  void Backfill(const AnswerSet& answers, WorkerId worker, int k,
                const std::vector<CellRef>& unavailable,
                std::vector<CellRef>* picked);

  std::unique_ptr<AssignmentPolicy> policy_;
  RouterOptions options_;
  Rng rng_;
  int answers_since_refresh_ = 0;
  int refresh_count_ = 0;
  int64_t backfilled_ = 0;
  bool refreshed_once_ = false;
};

}  // namespace tcrowd::service

#endif  // TCROWD_SERVICE_TASK_ROUTER_H_
