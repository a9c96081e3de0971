#ifndef TCROWD_ASSIGNMENT_POLICIES_H_
#define TCROWD_ASSIGNMENT_POLICIES_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "assignment/correlation.h"
#include "assignment/info_gain.h"
#include "assignment/policy.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "inference/inference_result.h"
#include "inference/tcrowd_model.h"

namespace tcrowd {

/// Uniformly random assignment among the cells the worker has not answered
/// (the strategy of CrowdDB/Deco/Qurk per the paper's related work).
class RandomPolicy : public AssignmentPolicy {
 public:
  explicit RandomPolicy(uint64_t seed = 1) : rng_(seed) {}
  std::string name() const override { return "Random"; }
  void Refresh(const Schema&, const AnswerSet&) override {}
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override;

 private:
  Rng rng_;
};

/// Round-robin over cells in row-major order, skipping cells the worker
/// already answered.
class LoopingPolicy : public AssignmentPolicy {
 public:
  std::string name() const override { return "Looping"; }
  void Refresh(const Schema&, const AnswerSet&) override {}
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override;

 private:
  int cursor_ = 0;
};

/// Greedy maximum-uncertainty assignment using T-Crowd's posterior entropy
/// directly (paper Section 6.4.2 "Entropy" heuristic). Differential and
/// Shannon entropies are NOT comparable, so this heuristic is biased toward
/// continuous tasks — reproduced here deliberately.
class EntropyPolicy : public AssignmentPolicy {
 public:
  explicit EntropyPolicy(TCrowdOptions options = TCrowdOptions())
      : model_(std::move(options)) {}
  std::string name() const override { return "Entropy"; }
  void Refresh(const Schema& schema, const AnswerSet& answers) override;
  void Observe(const Schema& schema, const AnswerSet& answers,
               const Answer& answer) override;
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override;

 private:
  TCrowdModel model_;
  TCrowdState state_;
  bool fitted_ = false;
};

/// Applies one Bayes step for `answer` to the cell posterior held in
/// `state` (shared by the entropy/gain policies' Observe hooks).
void ApplyIncrementalAnswer(const Answer& answer, TCrowdState* state);

/// Inherent information gain policy (paper Section 5.1): assigns the task
/// whose expected delta entropy under this worker's answer model is
/// largest. Task scoring is parallelized across a thread pool (the paper's
/// Section 5.1 parallelization note).
class InherentGainPolicy : public AssignmentPolicy {
 public:
  explicit InherentGainPolicy(TCrowdOptions options = TCrowdOptions(),
                              int num_threads = 1)
      : model_(std::move(options)),
        pool_(num_threads > 1 ? std::make_unique<ThreadPool>(num_threads)
                              : nullptr) {}
  std::string name() const override { return "InherentGain"; }
  void Refresh(const Schema& schema, const AnswerSet& answers) override;
  void Observe(const Schema& schema, const AnswerSet& answers,
               const Answer& answer) override;
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override;
  std::vector<CellRef> SelectTasksExcluding(
      const Schema& schema, const AnswerSet& answers, WorkerId worker,
      const std::vector<CellRef>& exclude, int k) override;

  /// Exposed for diagnostics/tests: IG of one cell for one worker.
  double Gain(const AnswerSet& answers, WorkerId worker, CellRef cell) const;

 protected:
  const TCrowdState& state() const { return state_; }
  bool fitted() const { return fitted_; }

  /// Scores every candidate once (possibly in parallel) and returns up to
  /// `k` of them by score descending, row-major order among ties. With the
  /// state frozen a cell scores the same in every round, so these are
  /// exactly the picks of k argmax rounds that exclude the earlier picks.
  std::vector<CellRef> TopCandidates(
      const AnswerSet& answers, WorkerId worker,
      const std::vector<CellRef>& exclude,
      const std::function<double(CellRef)>& score, int k) const;

  /// The policy's scoring function for `worker` against the current state.
  virtual std::function<double(CellRef)> Scorer(const AnswerSet& answers,
                                                WorkerId worker) const;

  TCrowdModel model_;
  TCrowdState state_;
  bool fitted_ = false;
  std::unique_ptr<ThreadPool> pool_;
};

/// Structure-aware information gain (paper Section 5.2): like
/// InherentGainPolicy, but when the incoming worker has already answered
/// other cells of the same row, the conditional error model P(e_j | e_k)
/// sharpens (or degrades) the predicted answer quality before computing the
/// gain.
class StructureAwarePolicy : public InherentGainPolicy {
 public:
  explicit StructureAwarePolicy(
      TCrowdOptions options = TCrowdOptions(),
      ErrorCorrelationModel::Options corr_options =
          ErrorCorrelationModel::Options(),
      int num_threads = 1)
      : InherentGainPolicy(std::move(options), num_threads),
        corr_options_(corr_options) {}
  std::string name() const override { return "StructureAware"; }
  void Refresh(const Schema& schema, const AnswerSet& answers) override;

  /// Structure-aware gain of one cell (diagnostics/tests).
  double StructureGain(const AnswerSet& answers, WorkerId worker,
                       CellRef cell) const;

  const ErrorCorrelationModel& correlation() const { return correlation_; }

 protected:
  std::function<double(CellRef)> Scorer(const AnswerSet& answers,
                                        WorkerId worker) const override;

 private:
  /// StructureGain against a prebuilt evidence set for the cell's row (may
  /// contain target-column entries; the correlation combiners skip them).
  /// The select path builds the worker's evidence once and scores every
  /// candidate through this.
  double GainWithEvidence(const AnswerSet& answers, WorkerId worker,
                          CellRef cell,
                          const std::vector<ObservedError>& evidence) const;

  ErrorCorrelationModel::Options corr_options_;
  ErrorCorrelationModel correlation_;
};

/// CDAS [20]: a quality-sensitive termination model. Tasks whose current
/// estimate is already confident are "terminated"; the incoming worker gets
/// a RANDOM live task. Uses majority voting / sample means as its
/// (deliberately simple) inference, as in the original system.
class CdasPolicy : public AssignmentPolicy {
 public:
  struct Options {
    /// Terminate a categorical task when the smoothed top-label share
    /// reaches this.
    double confidence_threshold = 0.9;
    /// Terminate a continuous task when the standard error of the mean
    /// drops below this fraction of the column's answer spread.
    double sem_fraction = 0.25;
    /// Minimum answers before a task may terminate.
    int min_answers = 3;
  };

  explicit CdasPolicy(uint64_t seed = 1) : rng_(seed) {}
  CdasPolicy(uint64_t seed, Options options) : rng_(seed), options_(options) {}
  std::string name() const override { return "CDAS"; }
  void Refresh(const Schema& schema, const AnswerSet& answers) override;
  void Observe(const Schema& schema, const AnswerSet& answers,
               const Answer& answer) override;
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override;

  bool IsTerminated(CellRef cell) const;

 private:
  bool ComputeTerminated(const Schema& schema, const AnswerSet& answers,
                         CellRef cell) const;

  Rng rng_;
  Options options_;
  std::vector<bool> terminated_;
  std::vector<double> col_spread_;
  int num_cols_ = 0;
};

/// AskIt! [5]: assigns the globally most uncertain task, worker-agnostic.
/// Uncertainty is raw entropy over the collected answers (Shannon entropy
/// of answer frequencies for categorical tasks, differential entropy of the
/// sample-mean distribution for continuous tasks). Because those entropies
/// live on different scales, AskIt! prefers continuous tasks first — the
/// bias the paper describes in Section 6.3.
class AskItPolicy : public AssignmentPolicy {
 public:
  std::string name() const override { return "AskIt!"; }
  void Refresh(const Schema& schema, const AnswerSet& answers) override;
  void Observe(const Schema& schema, const AnswerSet& answers,
               const Answer& answer) override;
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override;

 private:
  double CellUncertainty(const Schema& schema, const AnswerSet& answers,
                         CellRef cell) const;

  std::vector<double> uncertainty_;
  int num_cols_ = 0;
};

}  // namespace tcrowd

#endif  // TCROWD_ASSIGNMENT_POLICIES_H_
