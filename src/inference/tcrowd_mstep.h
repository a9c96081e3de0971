#ifndef TCROWD_INFERENCE_TCROWD_MSTEP_H_
#define TCROWD_INFERENCE_TCROWD_MSTEP_H_

#include <vector>

namespace tcrowd {

class EmExecutor;
struct AnswerMatrixSnapshot;
struct TCrowdState;

/// Layout of the flat log-parameter vector of the T-Crowd EM:
/// [ln alpha_0..N) [ln beta_0..M) [ln phi_0..W) — alpha/beta blocks are
/// omitted when the corresponding difficulty is not estimated. Workers are
/// the snapshot's dense worker ids.
struct ParamLayout {
  int num_rows = 0;
  int num_cols = 0;
  int num_workers = 0;
  bool with_alpha = true;
  bool with_beta = true;

  int alpha_offset() const { return 0; }
  int beta_offset() const { return with_alpha ? num_rows : 0; }
  int phi_offset() const {
    return beta_offset() + (with_beta ? num_cols : 0);
  }
  int size() const { return phi_offset() + num_workers; }
};

/// Per-parameter exp(ln x) tables, refreshed once per pass instead of
/// re-evaluating exp() for all three factors on every answer. Disabled
/// alpha/beta blocks read as 1.
struct ExpParams {
  std::vector<double> alpha, beta, phi;

  void Refresh(const ParamLayout& layout, const std::vector<double>& p);
};

/// The T-Crowd M-step: maximizes Q — the expected complete-data
/// log-likelihood (paper Eq. 5) plus the MAP priors over the
/// log-parameters — with the truth posteriors held fixed.
///
/// Every answer touches exactly one coordinate of each block (its row's
/// ln alpha, its column's ln beta, its worker's ln phi), so within a block
/// the Hessian of Q is diagonal and a block step is an exact set of
/// independent 1-D Newton steps. A sweep steps the alpha, beta, then phi
/// block. Each coordinate's step is clipped to +-1 in log space, and a
/// block step is halved (then dropped) whenever the pass at the new point
/// shows Q fell, so Q never decreases and the EM stays
/// generalized-monotone.
///
/// Each pass streams the answers once through EmExecutor::AccumulateSharded
/// into one 2P-sized buffer (gradient, then diagonal curvature), so a
/// sharded fit is bit-reproducible for a fixed shard count.
class TCrowdMStep {
 public:
  /// Halvings tried on a block step before it is dropped.
  static constexpr int kMaxHalvings = 4;

  /// Keeps references to every argument. `state` supplies the options,
  /// the column standardization and the posteriors; the E-step may rewrite
  /// those posteriors in place between Maximize() calls.
  TCrowdMStep(const AnswerMatrixSnapshot& snap, const TCrowdState& state,
              const ParamLayout& layout, EmExecutor* executor);

  /// One pass over the answers at `params`: returns Q(params) and fills
  /// `gh` (resized to 2 * layout.size()) with dQ/dtheta in [0, P) and the
  /// diagonal curvature in [P, 2P). Continuous answers contribute their
  /// exact second derivative; categorical answers the Fisher (expected)
  /// curvature, which is never positive. The priors add their precision.
  double Evaluate(const std::vector<double>& params, std::vector<double>* gh);

  /// Runs `sweeps` block-Newton sweeps on *params in place and returns Q
  /// at the result, which is never below Q at the start.
  double Maximize(int sweeps, std::vector<double>* params);

  /// Evaluate() calls made so far (diagnostics and tests).
  int passes() const { return passes_; }

 private:
  const AnswerMatrixSnapshot& snap_;
  const TCrowdState& state_;
  const ParamLayout& layout_;
  EmExecutor* executor_;
  std::vector<int> col_labels_;  // label count per categorical column
  ExpParams xp_;
  std::vector<double> gh_, trial_gh_, base_, step_;
  int passes_ = 0;
};

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_TCROWD_MSTEP_H_
