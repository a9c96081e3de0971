#ifndef TCROWD_INFERENCE_TCROWD_MODEL_H_
#define TCROWD_INFERENCE_TCROWD_MODEL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "inference/inference_result.h"

namespace tcrowd {

class EmExecutor;
struct AnswerMatrixSnapshot;

/// Tuning knobs of the T-Crowd truth-inference EM (paper Section 4).
struct TCrowdOptions {
  /// Half-width of the "good answer" interval in Eq. 2, in *standardized*
  /// units (continuous columns are internally divided by a robust scale so
  /// one epsilon — and one worker variance phi_u — is meaningful across
  /// columns of different magnitude).
  double epsilon = 0.5;

  /// Outer EM iterations (paper observes convergence in < 20).
  int max_em_iterations = 50;
  /// EM stops when the max absolute change of any log-parameter between
  /// consecutive iterations drops below this (paper uses 1e-5).
  double param_tolerance = 1e-5;
  /// Block-Newton sweeps per M-step (each sweep steps the alpha, beta and
  /// phi blocks once; see TCrowdMStep).
  int mstep_iterations = 2;

  /// Whether to estimate per-row difficulties alpha_i / per-column
  /// difficulties beta_j (Section 4.2). Disabling both reduces the model to
  /// a pure unified-worker-quality model.
  bool estimate_row_difficulty = true;
  bool estimate_col_difficulty = true;

  /// If non-empty, only these column indices participate (answers in other
  /// columns are ignored). Used for the paper's TC-onlyCate / TC-onlyCont
  /// restricted variants.
  std::vector<int> column_mask;

  /// Variance of the standardized Gaussian prior over continuous truths
  /// (the paper's Prior(T_ij) = N(mu_0j, phi_0j)); weak by default.
  double prior_variance = 4.0;

  /// MAP regularization: standard deviation of the zero-mean Gaussian prior
  /// over ln(alpha_i) and ln(beta_j), and over ln(phi_u) around its
  /// initialization. Keeps sparse rows/columns/workers well-posed.
  double log_difficulty_prior_stddev = 1.0;
  double log_phi_prior_stddev = 2.0;

  /// Initial worker variance phi_u (standardized units).
  double initial_phi = 0.5;

  /// Log-parameters are clamped into [-bound, bound] after each M-step.
  double log_param_bound = 8.0;

  /// Additional early stop: break when the observed-data log-likelihood
  /// improves by less than this between EM iterations. 0 disables.
  double objective_tolerance = 0.0;

  /// Cheaper settings for the inner loop of task-assignment experiments,
  /// where the model is refitted after every few answers and full
  /// convergence buys nothing.
  static TCrowdOptions Fast() {
    TCrowdOptions opt;
    opt.max_em_iterations = 12;
    opt.mstep_iterations = 1;
    opt.param_tolerance = 1e-3;
    opt.objective_tolerance = 0.05;
    return opt;
  }
};

/// Everything the EM fit produces, including what the task-assignment
/// policies need: per-cell truth posteriors, per-worker variances phi_u,
/// row/column difficulties, and the per-column standardization transform.
struct TCrowdState {
  Schema schema;
  int num_rows = 0;
  int num_cols = 0;
  TCrowdOptions options;

  std::vector<double> row_difficulty;  ///< alpha_i, one per row.
  std::vector<double> col_difficulty;  ///< beta_j, one per column.
  std::unordered_map<WorkerId, double> worker_phi;  ///< phi_u.
  /// Variance assumed for a worker never seen before (prior workers' median,
  /// or options.initial_phi when no worker is known).
  double default_phi = 0.5;

  /// Standardization of continuous columns: z = (x - center) / scale.
  /// center = 0, scale = 1 for categorical columns.
  std::vector<double> col_center;
  std::vector<double> col_scale;

  /// Row-major posterior per cell; continuous branches are in ORIGINAL
  /// units (mean/variance already unstandardized).
  std::vector<CellPosterior> posteriors;

  std::vector<double> objective_trace;  ///< observed-data log-likelihood.
  int em_iterations = 0;
  std::vector<bool> column_active;  ///< per-column mask.

  const CellPosterior& posterior(int row, int col) const;

  /// phi_u for a (possibly unseen) worker.
  double WorkerPhi(WorkerId u) const;
  /// Unified worker quality q_u = erf(eps / sqrt(2 phi_u)) — paper Eq. 2.
  double WorkerQuality(WorkerId u) const;
  /// Effective answer variance alpha_i * beta_j * phi_u in standardized
  /// units (Section 4.2's phi^u_ij).
  double AnswerVarianceStd(WorkerId u, int row, int col) const;
  /// Cell-conditional categorical quality q^u_ij = erf(eps/sqrt(2 phi^u_ij)).
  double CategoricalQuality(WorkerId u, int row, int col) const;

  double Standardize(int col, double x) const;
  double Unstandardize(int col, double z) const;
  /// Posterior variance of a continuous cell in standardized units.
  double StdPosteriorVariance(int row, int col) const;
};

/// The fitted parameters an online refit starts from: alpha_i, beta_j and
/// phi_u of an earlier fit of the same table. A small value type so a
/// caller can copy it out of a shared state under a lock and fit unlocked.
struct TCrowdWarmStart {
  std::vector<double> row_difficulty;
  std::vector<double> col_difficulty;
  std::unordered_map<WorkerId, double> worker_phi;
  /// Starting phi_u for workers the earlier fit never saw.
  double default_phi = 0.5;

  static TCrowdWarmStart From(const TCrowdState& state);
};

/// The paper's unified truth-inference method (Algorithm 1): a single
/// quality parameter per worker explains both categorical correctness and
/// continuous precision; row/column difficulties modulate it per cell; EM
/// alternates truth posteriors (E) and block-coordinate Newton ascent on
/// {ln alpha, ln beta, ln phi} (M).
class TCrowdModel : public TruthInference {
 public:
  explicit TCrowdModel(TCrowdOptions options = TCrowdOptions());

  std::string name() const override { return name_; }
  InferenceResult Infer(const Schema& schema,
                        const AnswerSet& answers) const override;

  /// Full fit, exposing the state task assignment needs. Runs serially on
  /// the caller's thread; pass an EmExecutor to shard it.
  TCrowdState Fit(const Schema& schema, const AnswerSet& answers) const;

  /// Full fit on a caller-provided persistent executor (the online serving
  /// path: the IncrementalInferenceEngine keeps one executor across
  /// refreshes so no fit ever spawns threads). The executor's shard count
  /// sets the fit's parallelism; pass nullptr to run serially, as the
  /// two-argument overload does. Blocks until converged; the
  /// executor must not be driven by another fit concurrently. `warm` as in
  /// the snapshot overload.
  TCrowdState Fit(const Schema& schema, const AnswerSet& answers,
                  EmExecutor* executor,
                  const TCrowdWarmStart* warm = nullptr) const;

  /// Full fit streaming a segmented answer snapshot (the online serving
  /// path: the engine's SegmentedAnswerStore seals a segment per refresh
  /// and hands over segment pointers instead of copying the matrix). The
  /// EM visits every answer in the same order as the flat batch path, so a
  /// fit over N segments is bit-identical to a fit over one segment holding
  /// the same answers. The snapshot's standardization epoch and column mask
  /// are used as-is; the mask must match this model's options. Blocks until
  /// converged; pass executor = nullptr to run serially.
  ///
  /// With `warm` null the EM starts cold (alpha = beta = 1, phi_u =
  /// options().initial_phi). Otherwise it starts from `warm`: ln alpha,
  /// ln beta and the known workers' ln phi are taken from it, new workers
  /// start at warm->default_phi, and the first E-step runs at those
  /// parameters. The objective is unchanged (the phi prior stays centered
  /// on initial_phi); only the starting point moves, so a refit after a
  /// few new answers converges in a few iterations. `warm` must describe a
  /// table of the same shape.
  TCrowdState Fit(const Schema& schema, const AnswerMatrixSnapshot& snapshot,
                  EmExecutor* executor,
                  const TCrowdWarmStart* warm = nullptr) const;

  /// The single-segment snapshot the AnswerSet overloads of Fit() run on:
  /// standardization, worker registry and column mask computed over the
  /// whole log.
  AnswerMatrixSnapshot BatchSnapshot(const Schema& schema,
                                     const AnswerSet& answers) const;

  /// Per-column participation mask implied by options().column_mask (all
  /// columns when the mask is empty). The engine builds its answer store
  /// with this so sealed segments agree with the model's masking.
  std::vector<bool> ActiveColumns(int num_cols) const;

  /// Converts a fitted state to the plain result interface.
  static InferenceResult StateToResult(const TCrowdState& state);

  const TCrowdOptions& options() const { return options_; }

  /// Factory helpers for the paper's restricted variants. They keep the full
  /// schema but mask the other datatype's columns out of the model.
  static TCrowdModel OnlyCategorical(const Schema& schema,
                                     TCrowdOptions options = TCrowdOptions());
  static TCrowdModel OnlyContinuous(const Schema& schema,
                                    TCrowdOptions options = TCrowdOptions());

 private:
  TCrowdModel(TCrowdOptions options, std::string name);

  TCrowdOptions options_;
  std::string name_ = "T-Crowd";
};

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_TCROWD_MODEL_H_
