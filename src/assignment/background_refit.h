#ifndef TCROWD_ASSIGNMENT_BACKGROUND_REFIT_H_
#define TCROWD_ASSIGNMENT_BACKGROUND_REFIT_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "data/answer.h"
#include "data/schema.h"
#include "inference/answer_segment.h"
#include "inference/tcrowd_model.h"

namespace tcrowd {

/// Applies one Bayes step for `answer` to the cell posterior held in
/// `state` (the paper's Section 5.1 acceleration: only the answered cell's
/// truth distribution moves between full refits).
void ApplyIncrementalAnswer(const Answer& answer, TCrowdState* state);

/// The truth model of the T-Crowd policies (entropy, inherent gain,
/// structure-aware), refit off the caller's thread and installed one
/// Refresh() later.
///
/// Each Refresh() installs the fit the previous Refresh() launched (waiting
/// only if it is still running), replays onto it the answers Observe()d
/// since that launch, then snapshots the current answers on the caller's
/// thread and launches the next fit, warm-started from the just-installed
/// state, on one persistent worker thread this object owns. The first
/// Refresh() fits cold and synchronously before launching.
///
/// So the installed state is the fit of the answers seen one Refresh()
/// earlier plus a per-cell update for every answer observed since. It is a
/// function of the sequence of Refresh()/Observe() calls only, never of
/// thread timing. A fit that throws leaves the installed state in place.
/// Destruction waits for a fit in flight.
///
/// Thread-safety: not thread-safe; one caller drives it, as a policy is
/// driven. The worker touches only the launched fit's own inputs and
/// result, never the installed state.
class BackgroundRefit {
 public:
  /// Fits `snapshot`, warm-started from `warm`, cold when it is null.
  using FitFn = std::function<TCrowdState(const Schema& schema,
                                          const AnswerMatrixSnapshot& snapshot,
                                          const TCrowdWarmStart* warm)>;

  explicit BackgroundRefit(TCrowdOptions options)
      : BackgroundRefit(std::move(options), FitFn()) {}
  /// Runs `fit` instead of TCrowdModel::Fit when it is set (tests inject
  /// slow or failing fits through this).
  BackgroundRefit(TCrowdOptions options, FitFn fit);

  BackgroundRefit(const BackgroundRefit&) = delete;
  BackgroundRefit& operator=(const BackgroundRefit&) = delete;

  /// Installs the previous launch's fit, replays the observed answers onto
  /// it, and launches the next fit over `answers`.
  void Refresh(const Schema& schema, const AnswerSet& answers);

  /// Applies `answer` to the installed state and queues it for replay onto
  /// the fit in flight. Requires fitted().
  void Observe(const Answer& answer);

  /// Blocks until the launched fit, if any, has finished. It is still
  /// installed only by the next Refresh(), so this changes no result; it
  /// lets a benchmark time Refresh()'s share of the caller's thread alone.
  void WaitForFit();

  bool fitted() const { return fitted_; }
  const TCrowdState& state() const { return state_; }

 private:
  TCrowdModel model_;
  FitFn fit_;
  TCrowdState state_;
  bool fitted_ = false;

  /// The fit launched by the last Refresh() (every Refresh() launches one).
  /// The worker reads the inputs and writes the result between Submit()
  /// and the Wait() that ends it; the caller touches none of them in
  /// between.
  bool fit_failed_ = false;
  Schema job_schema_;
  AnswerMatrixSnapshot job_snapshot_;
  TCrowdWarmStart job_warm_;
  TCrowdState job_result_;
  /// Answers observed since the launch, replayed onto its fit at install.
  std::vector<Answer> replay_;

  /// One thread, started by the first Refresh() (a policy that is never
  /// refreshed, like the one serving flags build to validate a policy
  /// name, starts none). Declared last so it is destroyed first: its
  /// destructor runs the fit in flight to completion while the job's
  /// members are still alive.
  std::unique_ptr<ThreadPool> worker_;
};

}  // namespace tcrowd

#endif  // TCROWD_ASSIGNMENT_BACKGROUND_REFIT_H_
