#ifndef TCROWD_ASSIGNMENT_POLICIES_H_
#define TCROWD_ASSIGNMENT_POLICIES_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "assignment/background_refit.h"
#include "assignment/correlation.h"
#include "assignment/info_gain.h"
#include "assignment/policy.h"
#include "common/rng.h"
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
/// continuous tasks — reproduced here deliberately. Its model is refit one
/// Refresh() behind, off the caller's thread (BackgroundRefit).
class EntropyPolicy : public AssignmentPolicy {
 public:
  explicit EntropyPolicy(TCrowdOptions options = TCrowdOptions())
      : refit_(std::move(options)) {}
  std::string name() const override { return "Entropy"; }
  void Refresh(const Schema& schema, const AnswerSet& answers) override;
  void Observe(const Schema& schema, const AnswerSet& answers,
               const Answer& answer) override;
  bool SelectTaskExcluding(const Schema& schema, const AnswerSet& answers,
                           WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           CellRef* out) override;

 private:
  BackgroundRefit refit_;
};

/// Inherent information gain policy (paper Section 5.1): assigns the task
/// whose expected delta entropy under this worker's answer model is
/// largest. Its model is refit one Refresh() behind, off the caller's
/// thread (BackgroundRefit).
///
/// Candidates are scored from a CellGainTable of the installed state: the
/// worker-independent terms of every cell's gain, rebuilt by each
/// Refresh() (which installs a fit) and updated for the one cell each
/// Observe() moves (Section 5.1: only the parameters that changed since
/// the last fit need recomputing). A lease looks up the worker's phi_u
/// once and evaluates CellGain() per candidate.
class InherentGainPolicy : public AssignmentPolicy {
 public:
  explicit InherentGainPolicy(TCrowdOptions options = TCrowdOptions())
      : InherentGainPolicy(BackgroundRefit::FitFn(), std::move(options)) {}
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

  /// Exposed for diagnostics/tests: IG of one cell for one worker, as a
  /// lease scores it.
  double Gain(const AnswerSet& answers, WorkerId worker, CellRef cell) const;

  /// Blocks until the fit the last Refresh() launched has finished
  /// (BackgroundRefit::WaitForFit; benchmarks only).
  void WaitForRefit() { refit_.WaitForFit(); }

 protected:
  /// Runs `fit` instead of TCrowdModel::Fit when it is set (tests inject
  /// failing or doctored fits through this, as into BackgroundRefit).
  InherentGainPolicy(BackgroundRefit::FitFn fit, TCrowdOptions options);

  const TCrowdState& state() const { return refit_.state(); }
  bool fitted() const { return refit_.fitted(); }

  /// The gain of `cell` for a worker with phi_u = `phi`, from the cell
  /// table; `correct_prob`/`answer_variance_std` override the answer model
  /// as in InformationGain::GainWithAnswerModel.
  double TableGain(CellRef cell, double phi, double correct_prob = -1.0,
                   double answer_variance_std = -1.0) const;
  ColumnType CellType(CellRef cell) const { return table_.terms(cell).type; }

  /// Fills scores_[i] with `worker`'s gain on candidates_[i].
  virtual void ScoreCandidates(const AnswerSet& answers, WorkerId worker);

  /// scores_[i] = score(candidates_[i]) for every candidate.
  template <typename Score>
  void ScoreEach(const Score& score) {
    scores_.resize(candidates_.size());
    for (size_t i = 0; i < candidates_.size(); ++i) {
      scores_[i] = score(candidates_[i]);
    }
  }

 private:
  BackgroundRefit refit_;
  CellGainTable table_;

  /// Per-lease scratch, reused so a lease allocates nothing once grown.
  std::vector<char> blocked_;
  std::vector<CellRef> candidates_;
  std::vector<double> scores_;
  std::vector<char> taken_;
};

/// Structure-aware information gain (paper Section 5.2): like
/// InherentGainPolicy, but when the incoming worker has already answered
/// other cells of the same row, the conditional error model P(e_j | e_k)
/// sharpens (or degrades) the predicted answer quality before computing the
/// gain. The worker's evidence is built once per lease (RowEvidence), the
/// gain itself read from the inherited cell table.
class StructureAwarePolicy : public InherentGainPolicy {
 public:
  explicit StructureAwarePolicy(
      TCrowdOptions options = TCrowdOptions(),
      ErrorCorrelationModel::Options corr_options =
          ErrorCorrelationModel::Options())
      : StructureAwarePolicy(BackgroundRefit::FitFn(), std::move(options),
                             corr_options) {}
  std::string name() const override { return "StructureAware"; }
  void Refresh(const Schema& schema, const AnswerSet& answers) override;

  /// Structure-aware gain of one cell, as a lease scores it
  /// (diagnostics/tests).
  double StructureGain(const AnswerSet& answers, WorkerId worker,
                       CellRef cell) const;

  const ErrorCorrelationModel& correlation() const { return correlation_; }

 protected:
  /// As InherentGainPolicy's (tests inject fits through this).
  StructureAwarePolicy(BackgroundRefit::FitFn fit, TCrowdOptions options,
                       ErrorCorrelationModel::Options corr_options)
      : InherentGainPolicy(std::move(fit), std::move(options)),
        corr_options_(corr_options) {}

  void ScoreCandidates(const AnswerSet& answers, WorkerId worker) override;

 private:
  /// The structure-aware gain of `cell` for a worker with phi_u = `phi`
  /// whose evidence set for the cell's row is [first, last) (it may hold
  /// target-column entries; the correlation combiners skip them).
  double GainWithEvidence(CellRef cell, double phi, const ObservedError* first,
                          const ObservedError* last) const;

  ErrorCorrelationModel::Options corr_options_;
  ErrorCorrelationModel correlation_;
  RowEvidence evidence_;  ///< per-lease scratch
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
