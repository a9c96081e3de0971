#include "inference/tcrowd_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "inference/answer_segment.h"
#include "inference/em_executor.h"
#include "inference/tcrowd_mstep.h"
#include "math/entropy.h"
#include "math/normal.h"
#include "math/special_functions.h"
#include "math/statistics.h"

namespace tcrowd {

using math::ClampProb;
using math::Erf;
using math::SafeLog;

namespace {

/// Cell-major cursor into one segment's entries for the row being
/// processed. Draining the cursors in segment order per column visits a
/// cell's entries in global submission order — the same sequence of
/// additions a single flat layout performs, so segmentation never changes
/// a bit of the result.
struct SegRowCursor {
  const AnswerSegment* seg = nullptr;
  int32_t pos = 0;
  int32_t end = 0;
};

/// Collects cursors for every segment holding active answers on `row`, in
/// segment (= chronological) order.
void CollectRowCursors(const AnswerMatrixSnapshot& snap, int row,
                       std::vector<SegRowCursor>* out) {
  out->clear();
  for (const auto& seg : snap.segments) {
    int32_t begin, end;
    if (seg->FindRowRun(row, &begin, &end)) {
      out->push_back({seg.get(), begin, end});
    }
  }
}

}  // namespace

const CellPosterior& TCrowdState::posterior(int row, int col) const {
  size_t idx = static_cast<size_t>(row) * num_cols + col;
  TCROWD_CHECK(idx < posteriors.size());
  return posteriors[idx];
}

double TCrowdState::WorkerPhi(WorkerId u) const {
  auto it = worker_phi.find(u);
  return it != worker_phi.end() ? it->second : default_phi;
}

double TCrowdState::WorkerQuality(WorkerId u) const {
  return Erf(options.epsilon / std::sqrt(2.0 * WorkerPhi(u)));
}

double TCrowdState::AnswerVarianceStd(WorkerId u, int row, int col) const {
  return row_difficulty[row] * col_difficulty[col] * WorkerPhi(u);
}

double TCrowdState::CategoricalQuality(WorkerId u, int row, int col) const {
  double s = AnswerVarianceStd(u, row, col);
  return ClampProb(Erf(options.epsilon / std::sqrt(2.0 * s)));
}

double TCrowdState::Standardize(int col, double x) const {
  return (x - col_center[col]) / col_scale[col];
}

double TCrowdState::Unstandardize(int col, double z) const {
  return col_center[col] + z * col_scale[col];
}

double TCrowdState::StdPosteriorVariance(int row, int col) const {
  const CellPosterior& post = posterior(row, col);
  double scale = col_scale[col];
  return post.variance / (scale * scale);
}

TCrowdWarmStart TCrowdWarmStart::From(const TCrowdState& state) {
  TCrowdWarmStart warm;
  warm.row_difficulty = state.row_difficulty;
  warm.col_difficulty = state.col_difficulty;
  warm.worker_phi = state.worker_phi;
  warm.default_phi = state.default_phi;
  return warm;
}

TCrowdModel::TCrowdModel(TCrowdOptions options)
    : options_(std::move(options)) {}

TCrowdModel::TCrowdModel(TCrowdOptions options, std::string name)
    : options_(std::move(options)), name_(std::move(name)) {}

TCrowdModel TCrowdModel::OnlyCategorical(const Schema& schema,
                                         TCrowdOptions options) {
  options.column_mask = schema.CategoricalColumns();
  return TCrowdModel(std::move(options), "TC-onlyCate");
}

TCrowdModel TCrowdModel::OnlyContinuous(const Schema& schema,
                                        TCrowdOptions options) {
  options.column_mask = schema.ContinuousColumns();
  return TCrowdModel(std::move(options), "TC-onlyCont");
}

std::vector<bool> TCrowdModel::ActiveColumns(int num_cols) const {
  std::vector<bool> active(num_cols, options_.column_mask.empty());
  for (int j : options_.column_mask) {
    TCROWD_CHECK(j >= 0 && j < num_cols) << "bad column mask entry";
    active[j] = true;
  }
  return active;
}

namespace {

/// E-step (paper Eq. 4): recomputes every active cell's posterior from the
/// current parameters by draining each segment's contiguous run for the
/// cell, in segment order. Continuous posteriors are stored in original
/// units. Rows are independent (disjoint writes), so the loop shards
/// across the executor.
void RunEStep(const Schema& schema, const AnswerMatrixSnapshot& snap,
              const ExpParams& xp, EmExecutor* exec, TCrowdState* state) {
  const double eps = state->options.epsilon;
  const double prior_var = state->options.prior_variance;
  int rows = state->num_rows;
  int cols = state->num_cols;
  auto process_row = [&](size_t row) {
    int i = static_cast<int>(row);
    // Reused across rows per worker thread: the E-step is the hottest loop,
    // so it must not pay a heap allocation per (row, iteration).
    static thread_local std::vector<SegRowCursor> cur;
    CollectRowCursors(snap, i, &cur);
    for (int j = 0; j < cols; ++j) {
      CellPosterior& post =
          state->posteriors[static_cast<size_t>(i) * cols + j];
      const ColumnSpec& col = schema.column(j);
      post.type = col.type;
      if (!state->column_active[j]) continue;
      if (col.type == ColumnType::kContinuous) {
        // Gaussian posterior: precision-weighted answers plus the prior
        // N(0, prior_var) in standardized coordinates.
        double precision = 1.0 / prior_var;
        double weighted = 0.0;
        for (SegRowCursor& c : cur) {
          const int32_t* ccol = c.seg->cm_col();
          const int32_t* cworker = c.seg->cm_worker();
          const double* cnumber = c.seg->cm_number();
          while (c.pos < c.end && ccol[c.pos] == j) {
            double s = xp.alpha[i] * xp.beta[j] * xp.phi[cworker[c.pos]];
            s = std::max(s, math::Normal::kVarianceFloor);
            double z = cnumber[c.pos];
            precision += 1.0 / s;
            weighted += z / s;
            ++c.pos;
          }
        }
        double t_var = 1.0 / precision;
        double t_mu = weighted * t_var;
        double scale = state->col_scale[j];
        post.mean = state->Unstandardize(j, t_mu);
        post.variance = t_var * scale * scale;
        post.probs.clear();
      } else {
        int L = col.num_labels();
        // Accumulated in place: after the first iteration the cell's
        // probability vector already has the capacity, so no allocation.
        std::vector<double>& log_p = post.probs;
        log_p.assign(L, 0.0);  // uniform prior cancels
        for (SegRowCursor& c : cur) {
          const int32_t* ccol = c.seg->cm_col();
          const int32_t* cworker = c.seg->cm_worker();
          const int32_t* clabel = c.seg->cm_label();
          while (c.pos < c.end && ccol[c.pos] == j) {
            double s = xp.alpha[i] * xp.beta[j] * xp.phi[cworker[c.pos]];
            double q = ClampProb(Erf(eps / std::sqrt(2.0 * s)));
            double log_q = std::log(q);
            double log_wrong = std::log((1.0 - q) / std::max(1, L - 1));
            for (int z = 0; z < L; ++z) {
              log_p[z] += (z == clabel[c.pos]) ? log_q : log_wrong;
            }
            ++c.pos;
          }
        }
        math::SoftmaxInPlace(&log_p);
      }
    }
  };
  exec->ParallelFor(static_cast<size_t>(rows), process_row);
}

/// Observed-data objective for the convergence trace (Fig. 12a):
/// ln P(A | alpha, beta, phi) + ln Prior(alpha, beta, phi). Exact for both
/// datatypes — the categorical latent label and the continuous latent truth
/// are marginalized out. Including the MAP prior terms makes the trace the
/// quantity EM provably never decreases.
double ObservedLogLikelihood(const Schema& schema,
                             const AnswerMatrixSnapshot& snap,
                             const ParamLayout& layout, const ExpParams& xp,
                             const std::vector<double>& params,
                             const TCrowdState& state) {
  const double eps = state.options.epsilon;
  const double prior_var = state.options.prior_variance;
  double ll = 0.0;
  int rows = state.num_rows;
  int cols = state.num_cols;
  std::vector<SegRowCursor> cur;
  cur.reserve(snap.segments.size());
  std::vector<double> log_p;  // per-cell scratch, reused across cells
  for (int i = 0; i < rows; ++i) {
    CollectRowCursors(snap, i, &cur);
    for (int j = 0; j < cols; ++j) {
      if (!state.column_active[j]) continue;
      // Cells without answers contribute nothing (matches the historical
      // flat-layout skip bit for bit).
      bool has_answers = false;
      for (const SegRowCursor& c : cur) {
        if (c.pos < c.end && c.seg->cm_col()[c.pos] == j) {
          has_answers = true;
          break;
        }
      }
      if (!has_answers) continue;
      const ColumnSpec& col = schema.column(j);
      if (col.type == ColumnType::kContinuous) {
        // Sequential predictive decomposition of the Gaussian marginal.
        math::Normal belief(0.0, prior_var);
        for (SegRowCursor& c : cur) {
          const int32_t* ccol = c.seg->cm_col();
          const int32_t* cworker = c.seg->cm_worker();
          const double* cnumber = c.seg->cm_number();
          while (c.pos < c.end && ccol[c.pos] == j) {
            double s = xp.alpha[i] * xp.beta[j] * xp.phi[cworker[c.pos]];
            double z = cnumber[c.pos];
            math::Normal predictive(belief.mean(), belief.variance() + s);
            ll += predictive.LogPdf(z);
            belief = belief.PosteriorGivenObservation(z, s);
            ++c.pos;
          }
        }
      } else {
        int L = col.num_labels();
        log_p.assign(L, -std::log(static_cast<double>(L)));
        for (SegRowCursor& c : cur) {
          const int32_t* ccol = c.seg->cm_col();
          const int32_t* cworker = c.seg->cm_worker();
          const int32_t* clabel = c.seg->cm_label();
          while (c.pos < c.end && ccol[c.pos] == j) {
            double s = xp.alpha[i] * xp.beta[j] * xp.phi[cworker[c.pos]];
            double q = ClampProb(Erf(eps / std::sqrt(2.0 * s)));
            double log_q = std::log(q);
            double log_wrong = std::log((1.0 - q) / std::max(1, L - 1));
            for (int z = 0; z < L; ++z) {
              log_p[z] += (z == clabel[c.pos]) ? log_q : log_wrong;
            }
            ++c.pos;
          }
        }
        ll += math::LogSumExp(log_p);
      }
    }
  }
  // MAP prior terms (without normalizing constants).
  const TCrowdOptions& opt = state.options;
  const double inv_dv = 1.0 / (opt.log_difficulty_prior_stddev *
                               opt.log_difficulty_prior_stddev);
  const double inv_pv =
      1.0 / (opt.log_phi_prior_stddev * opt.log_phi_prior_stddev);
  const double log_phi0 = std::log(opt.initial_phi);
  if (layout.with_alpha) {
    for (int i = 0; i < layout.num_rows; ++i) {
      double v = params[layout.alpha_offset() + i];
      ll -= 0.5 * inv_dv * v * v;
    }
  }
  if (layout.with_beta) {
    for (int j = 0; j < layout.num_cols; ++j) {
      double v = params[layout.beta_offset() + j];
      ll -= 0.5 * inv_dv * v * v;
    }
  }
  for (int w = 0; w < layout.num_workers; ++w) {
    double v = params[layout.phi_offset() + w] - log_phi0;
    ll -= 0.5 * inv_pv * v * v;
  }
  return ll;
}

}  // namespace

TCrowdState TCrowdModel::Fit(const Schema& schema,
                             const AnswerSet& answers) const {
  return Fit(schema, answers, static_cast<EmExecutor*>(nullptr));
}

TCrowdState TCrowdModel::Fit(const Schema& schema, const AnswerSet& answers,
                             EmExecutor* executor,
                             const TCrowdWarmStart* warm) const {
  return Fit(schema, BatchSnapshot(schema, answers), executor, warm);
}

AnswerMatrixSnapshot TCrowdModel::BatchSnapshot(
    const Schema& schema, const AnswerSet& answers) const {
  TCROWD_CHECK(schema.num_columns() == answers.num_cols())
      << "schema/answers column mismatch";
  // The flat batch layout is just the single-segment special case of the
  // segmented snapshot: compute the column mask, the standardization
  // epoch, and the first-appearance worker registry over the whole log,
  // and seal one segment.
  AnswerMatrixSnapshot snap;
  snap.num_rows = answers.num_rows();
  snap.num_cols = answers.num_cols();
  snap.column_active = ActiveColumns(snap.num_cols);

  const Answer* log = answers.answers().data();
  std::unordered_map<WorkerId, int> worker_to_dense;
  BuildWorkerRegistry(log, answers.size(), &snap.worker_ids,
                      &worker_to_dense);
  ComputeColumnStandardization(schema,
                               CollectColumnValues(schema, log,
                                                   answers.size()),
                               &snap.col_center, &snap.col_scale);

  snap.offsets.push_back(0);
  if (!answers.empty()) {
    snap.segments.push_back(AnswerSegment::Build(
        schema, snap.column_active, snap.col_center, snap.col_scale,
        answers.answers().data(), answers.size(), worker_to_dense));
    snap.offsets.push_back(answers.size());
  }
  return snap;
}

TCrowdState TCrowdModel::Fit(const Schema& schema,
                             const AnswerMatrixSnapshot& snap,
                             EmExecutor* executor,
                             const TCrowdWarmStart* warm) const {
  TCROWD_CHECK(schema.num_columns() == snap.num_cols)
      << "schema/snapshot column mismatch";
  TCrowdState state;
  state.schema = schema;
  state.num_rows = snap.num_rows;
  state.num_cols = snap.num_cols;
  state.options = options_;
  state.row_difficulty.assign(state.num_rows, 1.0);
  state.col_difficulty.assign(state.num_cols, 1.0);
  state.col_center = snap.col_center;
  state.col_scale = snap.col_scale;
  state.posteriors.assign(
      static_cast<size_t>(state.num_rows) * state.num_cols, CellPosterior{});
  state.default_phi = options_.initial_phi;
  state.column_active = snap.column_active;
  TCROWD_CHECK(state.column_active == ActiveColumns(state.num_cols))
      << "snapshot column mask does not match the model's options";

  ParamLayout layout;
  layout.num_rows = state.num_rows;
  layout.num_cols = state.num_cols;
  layout.num_workers = snap.num_workers();
  layout.with_alpha = options_.estimate_row_difficulty;
  layout.with_beta = options_.estimate_col_difficulty;

  std::vector<double> params(layout.size(), 0.0);
  if (warm == nullptr) {
    for (int w = 0; w < layout.num_workers; ++w) {
      params[layout.phi_offset() + w] = std::log(options_.initial_phi);
    }
  } else {
    TCROWD_CHECK(warm->row_difficulty.size() ==
                     static_cast<size_t>(layout.num_rows) &&
                 warm->col_difficulty.size() ==
                     static_cast<size_t>(layout.num_cols))
        << "warm start describes a table of another shape";
    if (layout.with_alpha) {
      for (int i = 0; i < layout.num_rows; ++i) {
        params[layout.alpha_offset() + i] =
            std::log(warm->row_difficulty[i]);
      }
    }
    if (layout.with_beta) {
      for (int j = 0; j < layout.num_cols; ++j) {
        params[layout.beta_offset() + j] = std::log(warm->col_difficulty[j]);
      }
    }
    for (int w = 0; w < layout.num_workers; ++w) {
      auto it = warm->worker_phi.find(snap.worker_ids[w]);
      params[layout.phi_offset() + w] = std::log(
          it != warm->worker_phi.end() ? it->second : warm->default_phi);
    }
  }

  // A caller-provided executor carries the persistent pool and scratch; the
  // batch path runs on a serial one, which spawns no threads.
  EmExecutor serial(1);
  if (executor == nullptr) executor = &serial;

  ExpParams xp;
  xp.Refresh(layout, params);

  // Initial E-step: cold, with neutral difficulties and uniform worker
  // quality (equivalent to frequency/mean-based initialization); warm, at
  // the earlier fit's parameters.
  RunEStep(schema, snap, xp, executor, &state);

  TCrowdMStep mstep(snap, state, layout, executor);
  std::vector<double> prev = params;
  for (int iter = 0; iter < options_.max_em_iterations; ++iter) {
    state.em_iterations = iter + 1;

    // M-step: block-Newton ascent on Q over the log-parameters.
    mstep.Maximize(options_.mstep_iterations, &params);

    // Clamp and fix the alpha*beta*phi scale degeneracy: mean-center the
    // log-difficulty blocks, pushing the removed scale into phi.
    double bound = options_.log_param_bound;
    for (double& v : params) v = std::clamp(v, -bound, bound);
    if (layout.with_alpha && layout.num_rows > 0) {
      double mean_a = 0.0;
      for (int i = 0; i < layout.num_rows; ++i) {
        mean_a += params[layout.alpha_offset() + i];
      }
      mean_a /= layout.num_rows;
      for (int i = 0; i < layout.num_rows; ++i) {
        params[layout.alpha_offset() + i] -= mean_a;
      }
      for (int w = 0; w < layout.num_workers; ++w) {
        params[layout.phi_offset() + w] += mean_a;
      }
    }
    if (layout.with_beta && layout.num_cols > 0) {
      double mean_b = 0.0;
      for (int j = 0; j < layout.num_cols; ++j) {
        mean_b += params[layout.beta_offset() + j];
      }
      mean_b /= layout.num_cols;
      for (int j = 0; j < layout.num_cols; ++j) {
        params[layout.beta_offset() + j] -= mean_b;
      }
      for (int w = 0; w < layout.num_workers; ++w) {
        params[layout.phi_offset() + w] += mean_b;
      }
    }
    for (double& v : params) v = std::clamp(v, -bound, bound);

    // E-step with the fresh parameters.
    xp.Refresh(layout, params);
    RunEStep(schema, snap, xp, executor, &state);

    state.objective_trace.push_back(
        ObservedLogLikelihood(schema, snap, layout, xp, params, state));
    size_t n_trace = state.objective_trace.size();
    if (options_.objective_tolerance > 0.0 && n_trace >= 2 &&
        std::fabs(state.objective_trace[n_trace - 1] -
                  state.objective_trace[n_trace - 2]) <
            options_.objective_tolerance) {
      break;
    }

    // Convergence on parameter movement (paper: threshold 1e-5).
    double max_delta = 0.0;
    for (size_t k = 0; k < params.size(); ++k) {
      max_delta = std::max(max_delta, std::fabs(params[k] - prev[k]));
    }
    prev = params;
    if (max_delta < options_.param_tolerance) break;
  }

  // Export parameters.
  state.row_difficulty = xp.alpha;
  state.col_difficulty = xp.beta;
  std::vector<double> phis;
  for (int w = 0; w < layout.num_workers; ++w) {
    double phi = xp.phi[w];
    state.worker_phi[snap.worker_ids[w]] = phi;
    phis.push_back(phi);
  }
  if (!phis.empty()) state.default_phi = math::Median(phis);
  return state;
}

InferenceResult TCrowdModel::StateToResult(const TCrowdState& state) {
  InferenceResult result;
  result.estimated_truth = Table(state.schema, state.num_rows);
  result.posteriors = state.posteriors;
  result.iterations = state.em_iterations;
  result.objective_trace = state.objective_trace;
  for (const auto& [worker, phi] : state.worker_phi) {
    result.worker_quality[worker] =
        Erf(state.options.epsilon / std::sqrt(2.0 * phi));
  }
  for (int i = 0; i < state.num_rows; ++i) {
    for (int j = 0; j < state.num_cols; ++j) {
      if (!state.column_active[j]) continue;
      const CellPosterior& post = state.posterior(i, j);
      if (post.type == ColumnType::kCategorical && post.probs.empty()) {
        continue;  // no answers, nothing to estimate
      }
      result.estimated_truth.Set(i, j, post.PointEstimate());
    }
  }
  return result;
}

InferenceResult TCrowdModel::Infer(const Schema& schema,
                                   const AnswerSet& answers) const {
  return StateToResult(Fit(schema, answers));
}

}  // namespace tcrowd
