#include "assignment/info_gain.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "math/special_functions.h"

namespace tcrowd {

CellGainTerms CellGainTerms::Of(const TCrowdState& state, int row, int col) {
  CellGainTerms terms;
  const ColumnSpec& spec = state.schema.column(col);
  terms.type = spec.type;
  terms.difficulty = state.row_difficulty[row] * state.col_difficulty[col];
  if (spec.type == ColumnType::kContinuous) {
    terms.variance = std::max(state.StdPosteriorVariance(row, col), 1e-12);
    return terms;
  }
  const std::vector<double>& p = state.posterior(row, col).probs;
  TCROWD_CHECK(!state.column_active[col] ||
               static_cast<int>(p.size()) == spec.num_labels())
      << "posterior size mismatch on categorical cell";
  terms.num_labels = static_cast<int>(p.size());
  for (double pz : p) {
    if (pz <= 0.0) continue;
    terms.sum_p += pz;
    terms.sum_plogp += pz * std::log(pz);
  }
  // H = -sum (p/P) ln(p/P) = ln P - (sum p ln p) / P.
  if (terms.sum_p > 0.0) {
    terms.entropy = std::log(terms.sum_p) - terms.sum_plogp / terms.sum_p;
  }
  return terms;
}

double CellGain(const CellGainTerms& terms, const double* probs,
                double epsilon, double phi, double correct_prob,
                double answer_variance_std) {
  if (terms.type == ColumnType::kContinuous) {
    double s = answer_variance_std >= 0.0
                   ? std::max(answer_variance_std, 1e-12)
                   : terms.difficulty * phi;
    double updated = 1.0 / (1.0 / terms.variance + 1.0 / s);
    // Delta differential entropy; always >= 0.
    return 0.5 * std::log(terms.variance / updated);
  }

  // Categorical: exact expectation over the predicted answer. q^u_ij =
  // erf(eps / sqrt(2 phi^u_ij)) as in TCrowdState::CategoricalQuality.
  const int L = terms.num_labels;
  double q = math::ClampProb(
      correct_prob >= 0.0
          ? correct_prob
          : math::Erf(epsilon / std::sqrt(2.0 * (terms.difficulty * phi))));
  double wrong = (1.0 - q) / std::max(1, L - 1);

  // Expected posterior entropy after one answer, in O(L) instead of the
  // naive O(L^2): for a hypothetical answer y the unnormalized updated
  // posterior is u_z = p_z q for z == y and p_z wrong otherwise, so
  //   P(a = y)            = T_y = q p_y + wrong (P - p_y),  P = sum_z p_z
  //   P(a = y) H(post | y) = T_y ln T_y - [a_y ln a_y + sum_{z != y} b_z ln b_z]
  // with a_z = p_z q, b_z = p_z wrong; summing over y telescopes the bracket
  // into per-label sums S_a = sum a ln a and S_b = sum b ln b:
  //   expected_h = sum_y T_y ln T_y - S_a - (L - 1) S_b,
  // and S_a = q (sum p ln p + P ln q), S_b likewise with wrong, so only the
  // T_y need a log per label. (L = 50 for high-cardinality columns like
  // Celebrity's name attribute.)
  double s_a = q * (terms.sum_plogp + terms.sum_p * std::log(q));
  double s_b = wrong * (terms.sum_plogp + terms.sum_p * std::log(wrong));
  double expected_h = -s_a - (L - 1) * s_b;
  for (int y = 0; y < L; ++y) {
    double t = q * probs[y] + wrong * (terms.sum_p - probs[y]);
    if (t > 0.0) expected_h += t * std::log(t);
  }
  return terms.entropy - expected_h;
}

void CellGainTable::Rebuild(const TCrowdState& state) {
  num_cols_ = state.num_cols;
  cells_.resize(static_cast<size_t>(state.num_rows) * state.num_cols);
  for (int i = 0; i < state.num_rows; ++i) {
    for (int j = 0; j < state.num_cols; ++j) {
      cells_[static_cast<size_t>(i) * num_cols_ + j] =
          CellGainTerms::Of(state, i, j);
    }
  }
}

void CellGainTable::Update(const TCrowdState& state, CellRef cell) {
  cells_[static_cast<size_t>(cell.row) * num_cols_ + cell.col] =
      CellGainTerms::Of(state, cell.row, cell.col);
}

double InformationGain::InherentGain(const AnswerSet& answers, WorkerId u,
                                     CellRef cell) const {
  return GainWithAnswerModel(answers, u, cell, -1.0, -1.0);
}

double InformationGain::GainWithAnswerModel(const AnswerSet& answers,
                                            WorkerId u, CellRef cell,
                                            double correct_prob,
                                            double answer_variance_std) const {
  (void)answers;  // posterior already reflects the collected answers
  return CellGain(CellGainTerms::Of(*state_, cell.row, cell.col),
                  state_->posterior(cell.row, cell.col).probs.data(),
                  state_->options.epsilon, state_->WorkerPhi(u), correct_prob,
                  answer_variance_std);
}

}  // namespace tcrowd
