#ifndef TCROWD_ASSIGNMENT_POLICY_H_
#define TCROWD_ASSIGNMENT_POLICY_H_

#include <string>
#include <vector>

#include "data/answer.h"
#include "data/schema.h"

namespace tcrowd {

/// Online task-assignment policy (paper Definition 4): when a worker
/// arrives, decide which cell(s) to ask them about.
///
/// Protocol: the experiment loop calls Refresh() whenever the answer set has
/// grown (policies re-run/refresh their internal truth inference there),
/// then SelectTask()/SelectTasks() for each incoming worker. Policies must
/// only return cells the worker has not answered yet.
class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  virtual std::string name() const = 0;

  /// Re-synchronizes internal state with the (grown) answer set. The
  /// T-Crowd policies refit their model here; every refit after the first
  /// is warm-started from the previous fit's parameters, so the result
  /// depends on the sequence of Refresh() calls, not just on the final
  /// answer set.
  virtual void Refresh(const Schema& schema, const AnswerSet& answers) = 0;

  /// Cheap incremental update after one new answer (the paper's
  /// acceleration: "update the truth distribution [of the answered cell]
  /// and the qualities of workers who answered it" rather than refitting).
  /// Policies that keep per-cell state override this so consecutive
  /// selections between full Refresh() calls do not chase a stale argmax.
  /// `answer` must already be contained in `answers`.
  virtual void Observe(const Schema& schema, const AnswerSet& answers,
                       const Answer& answer) {
    (void)schema;
    (void)answers;
    (void)answer;
  }

  /// Picks the best task for `worker` among cells the worker has not
  /// answered and that are not in `exclude`. Returns false when nothing is
  /// assignable.
  virtual bool SelectTaskExcluding(const Schema& schema,
                                   const AnswerSet& answers, WorkerId worker,
                                   const std::vector<CellRef>& exclude,
                                   CellRef* out) = 0;

  /// Picks the single best task for `worker`.
  bool SelectTask(const Schema& schema, const AnswerSet& answers,
                  WorkerId worker, CellRef* out) {
    return SelectTaskExcluding(schema, answers, worker, {}, out);
  }

  /// Picks up to `k` distinct tasks for `worker` among cells the worker has
  /// not answered and that are not in `exclude` (paper Section 5.3): the
  /// greedy top-K selection of Eq. 9. The default runs repeated exclusion
  /// through SelectTaskExcluding. Policies whose scores do not depend on
  /// earlier picks override it to score the candidates once; an override
  /// must return exactly the repeated-exclusion picks, in order.
  virtual std::vector<CellRef> SelectTasksExcluding(
      const Schema& schema, const AnswerSet& answers, WorkerId worker,
      const std::vector<CellRef>& exclude, int k);

  /// Picks up to `k` tasks with nothing excluded.
  std::vector<CellRef> SelectTasks(const Schema& schema,
                                   const AnswerSet& answers, WorkerId worker,
                                   int k) {
    return SelectTasksExcluding(schema, answers, worker, {}, k);
  }
};

/// All cells the worker has not answered yet and that are not excluded.
std::vector<CellRef> CandidateCells(const AnswerSet& answers, WorkerId worker,
                                    const std::vector<CellRef>& exclude);

/// Row-major membership bitmap of `exclude` (size rows*cols). The service
/// layer passes O(cells)-long exclusion lists, so policies test against this
/// instead of a per-cell std::find.
std::vector<char> ExclusionBitmap(const AnswerSet& answers,
                                  const std::vector<CellRef>& exclude);

}  // namespace tcrowd

#endif  // TCROWD_ASSIGNMENT_POLICY_H_
