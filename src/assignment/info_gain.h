#ifndef TCROWD_ASSIGNMENT_INFO_GAIN_H_
#define TCROWD_ASSIGNMENT_INFO_GAIN_H_

#include <vector>

#include "data/answer.h"
#include "inference/tcrowd_model.h"

namespace tcrowd {

/// The worker-independent terms of one cell's inherent gain under a fitted
/// state: everything CellGain() needs besides the worker's phi_u (or an
/// overridden answer model) and, for a categorical cell, the posterior
/// probabilities themselves. Only the cell's posterior and alpha_i * beta_j
/// enter, so the terms change when a fit is installed or when an answer
/// moves this cell's posterior, never with the worker.
struct CellGainTerms {
  ColumnType type = ColumnType::kCategorical;
  /// Categorical: labels of the posterior (0 in a column the fit left out).
  int num_labels = 0;
  /// alpha_i * beta_j: a worker's answer variance is difficulty * phi_u.
  double difficulty = 0.0;
  /// Categorical: H(p), sum_z p_z and sum_z p_z ln p_z (over p_z > 0).
  double entropy = 0.0;
  double sum_p = 0.0;
  double sum_plogp = 0.0;
  /// Continuous: standardized posterior variance, floored at 1e-12.
  double variance = 0.0;

  static CellGainTerms Of(const TCrowdState& state, int row, int col);
};

/// The inherent information gain formula (paper Eq. 6) on a cell's terms:
/// the one place in the code that computes it. `probs` holds the cell's
/// `terms.num_labels` posterior probabilities (unread for a continuous
/// cell), `epsilon` is the fit's TCrowdOptions::epsilon and `phi` the
/// worker's phi_u. `correct_prob` and `answer_variance_std` override the
/// answer model as in InformationGain::GainWithAnswerModel.
double CellGain(const CellGainTerms& terms, const double* probs,
                double epsilon, double phi, double correct_prob,
                double answer_variance_std);

/// Row-major CellGainTerms of every cell of one fitted state. The gain
/// policies score candidates from it: Rebuild() when a fit is installed,
/// Update() for the one cell an observed answer moved.
class CellGainTable {
 public:
  void Rebuild(const TCrowdState& state);
  void Update(const TCrowdState& state, CellRef cell);

  const CellGainTerms& terms(CellRef cell) const {
    return cells_[static_cast<size_t>(cell.row) * num_cols_ + cell.col];
  }

 private:
  int num_cols_ = 0;
  std::vector<CellGainTerms> cells_;
};

/// Inherent information gain (paper Eq. 6): the expected drop in the
/// uniform entropy of a cell's truth distribution when worker `u` submits
/// one more answer, under the fitted T-Crowd model. Computes the cell's
/// CellGainTerms afresh per call and evaluates CellGain() on them; the
/// gain policies evaluate the same formula on terms kept in a
/// CellGainTable.
///
/// Categorical cells: exact expectation over the worker's predicted answer
/// distribution; each hypothetical answer updates the posterior by one
/// Bayes step (the paper's "update the parameters related to this answer"
/// acceleration).
///
/// Continuous cells: the posterior is Gaussian and one more observation of
/// variance s shrinks the posterior variance deterministically, so the
/// expectation needs no sampling:
///   IG = 1/2 * ln(var / var'),  var' = 1/(1/var + 1/s).
/// Delta entropies of the two types are comparable (the paper's
/// discretization argument), which is the whole point of the measure.
class InformationGain {
 public:
  /// `state` must outlive this object.
  explicit InformationGain(const TCrowdState* state) : state_(state) {}

  /// IG_q(c_ij) for worker u with the model-implied answer quality.
  double InherentGain(const AnswerSet& answers, WorkerId u, CellRef cell) const;

  /// IG with an overridden answer model for this (worker, cell):
  /// for categorical cells `correct_prob` replaces q^u_ij; for continuous
  /// cells `answer_variance_std` replaces alpha*beta*phi_u (standardized
  /// units). Pass a negative value to keep the model default. This is the
  /// hook the structure-aware policy uses (paper Section 5.2).
  double GainWithAnswerModel(const AnswerSet& answers, WorkerId u,
                             CellRef cell, double correct_prob,
                             double answer_variance_std) const;

 private:
  const TCrowdState* state_;
};

}  // namespace tcrowd

#endif  // TCROWD_ASSIGNMENT_INFO_GAIN_H_
