#ifndef TCROWD_ASSIGNMENT_CORRELATION_H_
#define TCROWD_ASSIGNMENT_CORRELATION_H_

#include <vector>

#include "data/answer.h"
#include "inference/tcrowd_model.h"
#include "math/bivariate_normal.h"
#include "math/normal.h"

namespace tcrowd {

/// One observed error of the incoming worker on a cell of the current row:
/// the evidence E^u_i of the paper's Eq. 7.
struct ObservedError {
  int col = -1;  ///< attribute k the worker already answered
  /// Categorical: 1.0 if the answer mismatched the estimated truth, else 0.
  /// Continuous: standardized signed error (a - T_hat) / col_scale.
  double value = 0.0;
};

/// One worker's evidence sets E^u_r for every row at once, flat: `errors`
/// grouped by ascending row, in answer order within a row, and row r's set
/// is errors[row_start[r], row_start[r + 1]). Filled by
/// ErrorCorrelationModel::BuildRowEvidence, which reuses the capacity.
struct RowEvidence {
  std::vector<int> row_start;  ///< num_rows + 1 offsets into `errors`
  std::vector<ObservedError> errors;

  const ObservedError* begin(int row) const {
    return errors.data() + row_start[row];
  }
  const ObservedError* end(int row) const {
    return errors.data() + row_start[row + 1];
  }
};

/// The paper's Section 5.2 cross-attribute error model: marginal error
/// distributions per column (Table 4), conditional distributions
/// P(e_j | e_k) for all four type combinations (Table 5), and the Pearson
/// weights W_jk (Eq. 8). Fitted by maximum likelihood from the answers each
/// worker gave to multiple cells of the same row.
class ErrorCorrelationModel {
 public:
  struct Options {
    /// Minimum matched error pairs before a conditional is trusted.
    int min_pair_samples = 8;
    /// Laplace pseudo-count for Bernoulli conditionals.
    double smoothing = 1.0;
  };

  /// Fits the model from the collected answers, using the fitted T-Crowd
  /// state for estimated truths and column standardization.
  static ErrorCorrelationModel Fit(const TCrowdState& state,
                                   const AnswerSet& answers, Options options);
  static ErrorCorrelationModel Fit(const TCrowdState& state,
                                   const AnswerSet& answers) {
    return Fit(state, answers, Options());
  }

  int num_cols() const { return num_cols_; }

  /// True if enough data existed to fit P(e_j | e_k).
  bool PairAvailable(int j, int k) const;
  /// W_jk; 0 when unavailable.
  double Weight(int j, int k) const;

  /// Marginal error rate of a categorical column (P(e_j = 1)).
  double MarginalErrorProb(int j) const;
  /// Marginal error distribution of a continuous column (standardized).
  math::Normal MarginalErrorDist(int j) const;

  /// P(e_j = 1 | e_k = obs.value) for a categorical target column j.
  double CondCategoricalError(int j, const ObservedError& obs) const;
  /// Conditional N(e_j | e_k = obs.value) for a continuous target column j.
  math::Normal CondContinuousError(int j, const ObservedError& obs) const;

  /// Eq. 7 combination across the worker's observed errors in the row,
  /// [first, last). Returns the predicted probability that the worker
  /// answers column j CORRECTLY (1 - P(e_j=1 | E)); negative when no usable
  /// evidence exists.
  double PredictCorrectProb(int j, const ObservedError* first,
                            const ObservedError* last) const;
  double PredictCorrectProb(int j,
                            const std::vector<ObservedError>& evidence) const {
    return PredictCorrectProb(j, evidence.data(),
                              evidence.data() + evidence.size());
  }
  /// Eq. 7 combination for a continuous target: the mixture-collapsed
  /// conditional error distribution. `ok` is false when no evidence usable.
  math::Normal PredictErrorDist(int j, const ObservedError* first,
                                const ObservedError* last, bool* ok) const;
  math::Normal PredictErrorDist(int j,
                                const std::vector<ObservedError>& evidence,
                                bool* ok) const {
    return PredictErrorDist(j, evidence.data(),
                            evidence.data() + evidence.size(), ok);
  }

  /// Computes the incoming worker's observed errors on row `row` (the set
  /// E^u_i), from their previous answers and the estimated truth in `state`.
  static std::vector<ObservedError> ObservedErrorsInRow(
      const TCrowdState& state, const AnswerSet& answers, WorkerId worker,
      int row, int exclude_col);

  /// All of one worker's observed errors, grouped by row into `out`: row
  /// r's range is the worker's evidence set E^u_r over every active column,
  /// in answer order. Two O(worker answers) passes and no allocation once
  /// `out` has grown replace the per-candidate rescan of the worker's whole
  /// answer log that dominated the fig-11 assignment sweep — build this
  /// once per incoming worker, then score every candidate cell against its
  /// row's range. Target-column entries need no filtering: the Predict*
  /// combiners skip obs.col == j themselves.
  static void BuildRowEvidence(const TCrowdState& state,
                               const AnswerSet& answers, WorkerId worker,
                               RowEvidence* out);

 private:
  /// Conditional model for one ordered pair (target j given evidence k).
  struct PairModel {
    bool available = false;
    double weight = 0.0;  // W_jk
    // cat j | cat k: P(e_j=1 | e_k=0), P(e_j=1 | e_k=1).
    double p_err_given_correct = 0.0;
    double p_err_given_wrong = 0.0;
    // cont j | cont k: joint bivariate normal over (e_j, e_k).
    math::BivariateNormal joint{0, 0, 1, 1, 0};
    // cont j | cat k: per-branch normals N(e_j | e_k = 0 / 1).
    math::Normal cont_given_correct{0, 1};
    math::Normal cont_given_wrong{0, 1};
    // cat j | cont k: generative branches N(e_k | e_j = 0 / 1) + prior.
    math::Normal evidence_given_correct{0, 1};
    math::Normal evidence_given_wrong{0, 1};
    double prior_err = 0.0;  // P(e_j = 1)
  };

  int num_cols_ = 0;
  std::vector<ColumnType> col_types_;
  std::vector<double> marginal_err_prob_;   // categorical columns
  std::vector<math::Normal> marginal_dist_; // continuous columns
  std::vector<PairModel> pairs_;            // j * num_cols + k

  const PairModel& pair(int j, int k) const;
};

}  // namespace tcrowd

#endif  // TCROWD_ASSIGNMENT_CORRELATION_H_
