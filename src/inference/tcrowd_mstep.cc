#include "inference/tcrowd_mstep.h"

#include <algorithm>
#include <cmath>

#include "inference/answer_segment.h"
#include "inference/em_executor.h"
#include "inference/tcrowd_model.h"
#include "math/normal.h"
#include "math/special_functions.h"

namespace tcrowd {

void ExpParams::Refresh(const ParamLayout& layout,
                        const std::vector<double>& p) {
  alpha.assign(layout.num_rows, 1.0);
  if (layout.with_alpha) {
    for (int i = 0; i < layout.num_rows; ++i) {
      alpha[i] = std::exp(p[layout.alpha_offset() + i]);
    }
  }
  beta.assign(layout.num_cols, 1.0);
  if (layout.with_beta) {
    for (int j = 0; j < layout.num_cols; ++j) {
      beta[j] = std::exp(p[layout.beta_offset() + j]);
    }
  }
  phi.resize(layout.num_workers);
  for (int w = 0; w < layout.num_workers; ++w) {
    phi[w] = std::exp(p[layout.phi_offset() + w]);
  }
}

TCrowdMStep::TCrowdMStep(const AnswerMatrixSnapshot& snap,
                         const TCrowdState& state, const ParamLayout& layout,
                         EmExecutor* executor)
    : snap_(snap), state_(state), layout_(layout), executor_(executor) {
  col_labels_.assign(state.num_cols, 0);
  for (int j = 0; j < state.num_cols; ++j) {
    if (state.schema.column(j).type == ColumnType::kCategorical) {
      col_labels_[j] = state.schema.column(j).num_labels();
    }
  }
}

double TCrowdMStep::Evaluate(const std::vector<double>& p,
                             std::vector<double>* gh) {
  ++passes_;
  const size_t num_params = static_cast<size_t>(layout_.size());
  gh->assign(2 * num_params, 0.0);
  xp_.Refresh(layout_, p);
  const double eps = state_.options.epsilon;
  const int cols = state_.num_cols;

  // Per-answer accumulation in global answer-id order (segments streamed
  // back to back); sharded over the executor with one scratch buffer per
  // shard and a tree reduction.
  auto accumulate = [&](size_t lo, size_t hi, double* out, double* val_out) {
    double* g_out = out;
    double* h_out = out + num_params;
    auto add = [&](int k, double g, double h) {
      g_out[k] += g;
      h_out[k] += h;
    };
    size_t s = static_cast<size_t>(std::upper_bound(snap_.offsets.begin(),
                                                    snap_.offsets.end(), lo) -
                                   snap_.offsets.begin()) -
               1;
    for (; s < snap_.segments.size() && snap_.offsets[s] < hi; ++s) {
      const AnswerSegment& seg = *snap_.segments[s];
      const int32_t* a_row = seg.ans_row();
      const int32_t* a_col = seg.ans_col();
      const int32_t* a_worker = seg.ans_worker();
      const double* a_number = seg.ans_number();
      const int32_t* a_label = seg.ans_label();
      const uint8_t* a_active = seg.ans_active();
      const uint8_t* a_continuous = seg.ans_continuous();
      size_t seg_lo = std::max(lo, snap_.offsets[s]) - snap_.offsets[s];
      size_t seg_hi = std::min(hi, snap_.offsets[s + 1]) - snap_.offsets[s];
      for (size_t idx = seg_lo; idx < seg_hi; ++idx) {
        if (!a_active[idx]) continue;
        int i = a_row[idx];
        int j = a_col[idx];
        int w = a_worker[idx];
        double s_var = xp_.alpha[i] * xp_.beta[j] * xp_.phi[w];
        s_var = std::max(s_var, math::Normal::kVarianceFloor);
        const CellPosterior& post =
            state_.posteriors[static_cast<size_t>(i) * cols + j];
        double g, h;  // first and second derivative of the term in ln s
        if (a_continuous[idx]) {
          double z = a_number[idx];
          double t_mu = state_.Standardize(j, post.mean);
          double t_var = post.variance /
                         (state_.col_scale[j] * state_.col_scale[j]);
          double resid = (z - t_mu) * (z - t_mu) + t_var;
          *val_out +=
              -0.5 * std::log(2.0 * M_PI * s_var) - resid / (2.0 * s_var);
          g = -0.5 + resid / (2.0 * s_var);
          h = -resid / (2.0 * s_var);
        } else {
          int L = col_labels_[j];
          double x = eps / std::sqrt(2.0 * s_var);
          double erf_x = math::Erf(x);
          double q = math::ClampProb(erf_x);
          double p_match =
              post.probs.empty() ? 1.0 / L : post.probs[a_label[idx]];
          *val_out += p_match * std::log(q) +
                      (1.0 - p_match) *
                          std::log((1.0 - q) / std::max(1, L - 1));
          // dq/d(ln s) = -(x / sqrt(pi)) * exp(-x^2), and 0 where the
          // probability clamp holds q (and so Q) constant.
          double dq = q == erf_x
                          ? -(x / std::sqrt(M_PI)) * std::exp(-x * x)
                          : 0.0;
          g = (p_match / q - (1.0 - p_match) / (1.0 - q)) * dq;
          h = -(p_match / (q * q) + (1.0 - p_match) / ((1.0 - q) * (1.0 - q))) *
              dq * dq;
        }
        if (layout_.with_alpha) add(layout_.alpha_offset() + i, g, h);
        if (layout_.with_beta) add(layout_.beta_offset() + j, g, h);
        add(layout_.phi_offset() + w, g, h);
      }
    }
  };
  double q_val = executor_->AccumulateSharded(snap_.num_answers(),
                                              2 * num_params, accumulate, gh);

  // MAP regularizers keep rarely-observed parameters near neutral: zero-mean
  // Gaussians over the log-difficulties, one around ln(initial_phi) over
  // ln phi.
  const TCrowdOptions& opt = state_.options;
  auto add_prior = [&](int begin, int end, double mean, double stddev) {
    const double precision = 1.0 / (stddev * stddev);
    for (int k = begin; k < end; ++k) {
      double v = p[k] - mean;
      q_val -= 0.5 * precision * v * v;
      (*gh)[k] -= precision * v;
      (*gh)[num_params + k] -= precision;
    }
  };
  if (layout_.with_alpha) {
    add_prior(layout_.alpha_offset(), layout_.alpha_offset() + layout_.num_rows,
              0.0, opt.log_difficulty_prior_stddev);
  }
  if (layout_.with_beta) {
    add_prior(layout_.beta_offset(), layout_.beta_offset() + layout_.num_cols,
              0.0, opt.log_difficulty_prior_stddev);
  }
  add_prior(layout_.phi_offset(), layout_.size(), std::log(opt.initial_phi),
            opt.log_phi_prior_stddev);
  return q_val;
}

double TCrowdMStep::Maximize(int sweeps, std::vector<double>* params) {
  std::vector<double>& p = *params;
  const int num_params = layout_.size();
  struct Block {
    int begin, end;
  };
  std::vector<Block> blocks;
  if (layout_.with_alpha) {
    blocks.push_back({layout_.alpha_offset(),
                      layout_.alpha_offset() + layout_.num_rows});
  }
  if (layout_.with_beta) {
    blocks.push_back(
        {layout_.beta_offset(), layout_.beta_offset() + layout_.num_cols});
  }
  blocks.push_back({layout_.phi_offset(), num_params});

  double q = Evaluate(p, &gh_);
  step_.resize(num_params);
  base_.resize(num_params);
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (const Block& b : blocks) {
      if (b.begin == b.end) continue;
      // The curvature is at most -precision < 0, so the step is defined.
      for (int k = b.begin; k < b.end; ++k) {
        step_[k] = std::clamp(-gh_[k] / gh_[num_params + k], -1.0, 1.0);
        base_[k] = p[k];
      }
      bool accepted = false;
      double scale = 1.0;
      for (int halving = 0; halving <= kMaxHalvings && !accepted;
           ++halving, scale *= 0.5) {
        for (int k = b.begin; k < b.end; ++k) {
          p[k] = base_[k] + scale * step_[k];
        }
        double q_trial = Evaluate(p, &trial_gh_);
        if (q_trial >= q) {
          q = q_trial;
          gh_.swap(trial_gh_);
          accepted = true;
        }
      }
      // gh_ and q still describe the base point when every trial failed.
      if (!accepted) {
        std::copy(base_.begin() + b.begin, base_.begin() + b.end,
                  p.begin() + b.begin);
      }
    }
  }
  return q;
}

}  // namespace tcrowd
