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
/// grown (policies refresh their internal truth inference there), Observe()
/// after each new answer, and SelectTask()/SelectTasks() for each incoming
/// worker. Policies must only return cells the worker has not answered yet.
class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;

  virtual std::string name() const = 0;

  /// Re-synchronizes internal state with the (grown) answer set.
  ///
  /// The T-Crowd policies (entropy, inherent gain, structure-aware) refit
  /// one call behind, off the caller's thread (BackgroundRefit): a call
  /// installs the fit the previous call launched, waiting only if it is
  /// still running, replays onto it the answers Observe()d since that
  /// launch, then snapshots `answers` and launches the next fit,
  /// warm-started from the installed state, on the policy's own worker
  /// thread. The caller pays for the snapshot and the install, not for the
  /// EM. Only the first call fits, cold, on the caller's thread. Selections
  /// therefore see the fit of the answers at the previous Refresh() plus
  /// the per-cell updates of every answer observed since: a function of
  /// the sequence of Refresh()/Observe()/Select calls, never of thread
  /// timing. `answers` is read during the call only.
  ///
  /// The model-free policies (random, looping, CDAS, AskIt!) recompute
  /// their cheap state inline.
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
