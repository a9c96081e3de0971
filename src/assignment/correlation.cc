#include "assignment/correlation.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "math/special_functions.h"
#include "math/statistics.h"

namespace tcrowd {

namespace {

/// Error of one answer against the estimated truth, in the convention of
/// ObservedError (categorical: 0/1 mismatch; continuous: standardized
/// signed deviation).
double AnswerError(const TCrowdState& state, const Answer& a) {
  const CellPosterior& post = state.posterior(a.cell.row, a.cell.col);
  if (a.value.is_categorical()) {
    Value est = post.PointEstimate();
    if (!est.valid()) return 0.0;
    return a.value.label() == est.label() ? 0.0 : 1.0;
  }
  return (a.value.number() - post.mean) / state.col_scale[a.cell.col];
}

}  // namespace

std::vector<ObservedError> ErrorCorrelationModel::ObservedErrorsInRow(
    const TCrowdState& state, const AnswerSet& answers, WorkerId worker,
    int row, int exclude_col) {
  std::vector<ObservedError> out;
  for (int id : answers.AnswersForWorkerInRow(worker, row)) {
    const Answer& a = answers.answer(id);
    if (a.cell.col == exclude_col) continue;
    if (!state.column_active[a.cell.col]) continue;
    out.push_back(ObservedError{a.cell.col, AnswerError(state, a)});
  }
  return out;
}

void ErrorCorrelationModel::BuildRowEvidence(const TCrowdState& state,
                                             const AnswerSet& answers,
                                             WorkerId worker,
                                             RowEvidence* out) {
  // Counting sort by row: start[r + 1] counts row r's errors; after the
  // prefix sum start[r] is row r's fill cursor, which the fill advances to
  // row r's end, so a final shift by one restores the begin offsets.
  const std::vector<int>& ids = answers.AnswersForWorker(worker);
  std::vector<int>& start = out->row_start;
  start.assign(static_cast<size_t>(state.num_rows) + 1, 0);
  for (int id : ids) {
    const CellRef& cell = answers.answer(id).cell;
    if (state.column_active[cell.col]) ++start[cell.row + 1];
  }
  for (int r = 0; r < state.num_rows; ++r) start[r + 1] += start[r];
  out->errors.resize(static_cast<size_t>(start[state.num_rows]));
  for (int id : ids) {
    const Answer& a = answers.answer(id);
    if (!state.column_active[a.cell.col]) continue;
    out->errors[start[a.cell.row]++] =
        ObservedError{a.cell.col, AnswerError(state, a)};
  }
  for (int r = state.num_rows; r > 0; --r) start[r] = start[r - 1];
  start[0] = 0;
}

ErrorCorrelationModel ErrorCorrelationModel::Fit(const TCrowdState& state,
                                                 const AnswerSet& answers,
                                                 Options options) {
  ErrorCorrelationModel model;
  model.num_cols_ = state.num_cols;
  model.col_types_.resize(model.num_cols_);
  model.marginal_err_prob_.assign(model.num_cols_, 0.0);
  model.marginal_dist_.assign(model.num_cols_, math::Normal(0.0, 1.0));
  model.pairs_.assign(
      static_cast<size_t>(model.num_cols_) * model.num_cols_, PairModel{});
  for (int j = 0; j < model.num_cols_; ++j) {
    model.col_types_[j] = state.schema.column(j).type;
  }

  // Every active answer's error, computed once: the pair loop below reads
  // each one once per other answer of its worker's row.
  std::vector<double> errors(answers.size(), 0.0);

  // Marginal error distributions per column (Table 4).
  {
    std::vector<double> err_count(model.num_cols_, 0.0);
    std::vector<double> total(model.num_cols_, 0.0);
    std::vector<std::vector<double>> cont_errors(model.num_cols_);
    for (size_t id = 0; id < answers.size(); ++id) {
      const Answer& a = answers.answers()[id];
      int j = a.cell.col;
      if (!state.column_active[j]) continue;
      double e = AnswerError(state, a);
      errors[id] = e;
      if (model.col_types_[j] == ColumnType::kCategorical) {
        err_count[j] += e;
        total[j] += 1.0;
      } else {
        cont_errors[j].push_back(e);
      }
    }
    for (int j = 0; j < model.num_cols_; ++j) {
      if (model.col_types_[j] == ColumnType::kCategorical) {
        model.marginal_err_prob_[j] =
            math::ClampProb((err_count[j] + options.smoothing) /
                            (total[j] + 2.0 * options.smoothing));
      } else if (cont_errors[j].size() >= 2) {
        model.marginal_dist_[j] = math::Normal(
            math::Mean(cont_errors[j]),
            std::max(math::Variance(cont_errors[j]), 1e-6));
      }
    }
  }

  // Matched error pairs (e_j, e_k) from workers answering several cells of
  // the same row; the raw material of Table 5 and Eq. 8.
  struct PairSamples {
    std::vector<double> ej, ek;
  };
  std::vector<PairSamples> samples(
      static_cast<size_t>(model.num_cols_) * model.num_cols_);

  for (WorkerId u : answers.Workers()) {
    // Group the worker's answers by row.
    std::vector<int> ids = answers.AnswersForWorker(u);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
      return answers.answer(a).cell.row < answers.answer(b).cell.row;
    });
    size_t start = 0;
    while (start < ids.size()) {
      size_t end = start;
      int row = answers.answer(ids[start]).cell.row;
      while (end < ids.size() && answers.answer(ids[end]).cell.row == row) {
        ++end;
      }
      for (size_t x = start; x < end; ++x) {
        const Answer& ax = answers.answer(ids[x]);
        if (!state.column_active[ax.cell.col]) continue;
        for (size_t y = start; y < end; ++y) {
          if (x == y) continue;
          const Answer& ay = answers.answer(ids[y]);
          if (!state.column_active[ay.cell.col]) continue;
          if (ax.cell.col == ay.cell.col) continue;
          PairSamples& ps =
              samples[static_cast<size_t>(ax.cell.col) * model.num_cols_ +
                      ay.cell.col];
          ps.ej.push_back(errors[ids[x]]);
          ps.ek.push_back(errors[ids[y]]);
        }
      }
      start = end;
    }
  }

  for (int j = 0; j < model.num_cols_; ++j) {
    for (int k = 0; k < model.num_cols_; ++k) {
      if (j == k) continue;
      PairModel& pm =
          model.pairs_[static_cast<size_t>(j) * model.num_cols_ + k];
      const PairSamples& ps =
          samples[static_cast<size_t>(j) * model.num_cols_ + k];
      if (static_cast<int>(ps.ej.size()) < options.min_pair_samples) continue;
      pm.available = true;
      pm.weight = math::PearsonCorrelation(ps.ej, ps.ek);

      bool j_cat = model.col_types_[j] == ColumnType::kCategorical;
      bool k_cat = model.col_types_[k] == ColumnType::kCategorical;
      const double sm = options.smoothing;

      if (j_cat && k_cat) {
        // Case (a): both categorical — two smoothed Bernoullis.
        double err_c = sm, n_c = 2.0 * sm, err_w = sm, n_w = 2.0 * sm;
        for (size_t t = 0; t < ps.ej.size(); ++t) {
          if (ps.ek[t] < 0.5) {
            err_c += ps.ej[t];
            n_c += 1.0;
          } else {
            err_w += ps.ej[t];
            n_w += 1.0;
          }
        }
        pm.p_err_given_correct = math::ClampProb(err_c / n_c);
        pm.p_err_given_wrong = math::ClampProb(err_w / n_w);
      } else if (!j_cat && !k_cat) {
        // Case (b): both continuous — bivariate normal MLE.
        pm.joint = math::BivariateNormal::Fit(ps.ej, ps.ek);
      } else if (!j_cat && k_cat) {
        // Case (c): continuous target given categorical evidence.
        std::vector<double> when_correct, when_wrong;
        for (size_t t = 0; t < ps.ej.size(); ++t) {
          (ps.ek[t] < 0.5 ? when_correct : when_wrong).push_back(ps.ej[t]);
        }
        auto fit_branch = [&](const std::vector<double>& v) {
          if (static_cast<int>(v.size()) >= 2) {
            return math::Normal(math::Mean(v),
                                std::max(math::Variance(v), 1e-6));
          }
          return model.marginal_dist_[j];
        };
        pm.cont_given_correct = fit_branch(when_correct);
        pm.cont_given_wrong = fit_branch(when_wrong);
      } else {
        // Case (d): categorical target given continuous evidence — fit the
        // generative branches N(e_k | e_j) and invert by Bayes at query.
        std::vector<double> ev_correct, ev_wrong;
        double err = sm, n = 2.0 * sm;
        for (size_t t = 0; t < ps.ej.size(); ++t) {
          if (ps.ej[t] < 0.5) {
            ev_correct.push_back(ps.ek[t]);
          } else {
            ev_wrong.push_back(ps.ek[t]);
          }
          err += ps.ej[t];
          n += 1.0;
        }
        auto fit_branch = [&](const std::vector<double>& v) {
          if (static_cast<int>(v.size()) >= 2) {
            return math::Normal(math::Mean(v),
                                std::max(math::Variance(v), 1e-6));
          }
          return model.marginal_dist_[k];
        };
        pm.evidence_given_correct = fit_branch(ev_correct);
        pm.evidence_given_wrong = fit_branch(ev_wrong);
        pm.prior_err = math::ClampProb(err / n);
      }
    }
  }
  return model;
}

const ErrorCorrelationModel::PairModel& ErrorCorrelationModel::pair(
    int j, int k) const {
  TCROWD_CHECK(j >= 0 && j < num_cols_ && k >= 0 && k < num_cols_);
  return pairs_[static_cast<size_t>(j) * num_cols_ + k];
}

bool ErrorCorrelationModel::PairAvailable(int j, int k) const {
  return pair(j, k).available;
}

double ErrorCorrelationModel::Weight(int j, int k) const {
  return pair(j, k).weight;
}

double ErrorCorrelationModel::MarginalErrorProb(int j) const {
  TCROWD_CHECK(col_types_[j] == ColumnType::kCategorical);
  return marginal_err_prob_[j];
}

math::Normal ErrorCorrelationModel::MarginalErrorDist(int j) const {
  TCROWD_CHECK(col_types_[j] == ColumnType::kContinuous);
  return marginal_dist_[j];
}

double ErrorCorrelationModel::CondCategoricalError(
    int j, const ObservedError& obs) const {
  TCROWD_CHECK(col_types_[j] == ColumnType::kCategorical);
  const PairModel& pm = pair(j, obs.col);
  TCROWD_CHECK(pm.available);
  if (col_types_[obs.col] == ColumnType::kCategorical) {
    return obs.value < 0.5 ? pm.p_err_given_correct : pm.p_err_given_wrong;
  }
  // Bayes inversion of the generative branches (Table 5 case d).
  double like_wrong = pm.evidence_given_wrong.Pdf(obs.value);
  double like_correct = pm.evidence_given_correct.Pdf(obs.value);
  double num = like_wrong * pm.prior_err;
  double den = num + like_correct * (1.0 - pm.prior_err);
  if (den <= 0.0) return pm.prior_err;
  return math::ClampProb(num / den);
}

math::Normal ErrorCorrelationModel::CondContinuousError(
    int j, const ObservedError& obs) const {
  TCROWD_CHECK(col_types_[j] == ColumnType::kContinuous);
  const PairModel& pm = pair(j, obs.col);
  TCROWD_CHECK(pm.available);
  if (col_types_[obs.col] == ColumnType::kContinuous) {
    return pm.joint.ConditionalXGivenY(obs.value);
  }
  return obs.value < 0.5 ? pm.cont_given_correct : pm.cont_given_wrong;
}

double ErrorCorrelationModel::PredictCorrectProb(
    int j, const ObservedError* first, const ObservedError* last) const {
  if (col_types_[j] != ColumnType::kCategorical) return -1.0;
  double weighted = 0.0, total_weight = 0.0;
  for (const ObservedError* it = first; it != last; ++it) {
    const ObservedError& obs = *it;
    if (obs.col == j || !PairAvailable(j, obs.col)) continue;
    double w = std::fabs(Weight(j, obs.col));
    if (w <= 1e-9) continue;
    weighted += w * CondCategoricalError(j, obs);
    total_weight += w;
  }
  if (total_weight <= 0.0) return -1.0;
  return 1.0 - weighted / total_weight;
}

math::Normal ErrorCorrelationModel::PredictErrorDist(
    int j, const ObservedError* first, const ObservedError* last,
    bool* ok) const {
  *ok = false;
  if (col_types_[j] != ColumnType::kContinuous) {
    return math::Normal(0.0, 1.0);
  }
  // Linear combination of the per-evidence conditionals (Eq. 7); the
  // mixture is collapsed to its first two moments.
  double total_weight = 0.0, mean_acc = 0.0, second_acc = 0.0;
  for (const ObservedError* it = first; it != last; ++it) {
    const ObservedError& obs = *it;
    if (obs.col == j || !PairAvailable(j, obs.col)) continue;
    double w = std::fabs(Weight(j, obs.col));
    if (w <= 1e-9) continue;
    math::Normal cond = CondContinuousError(j, obs);
    mean_acc += w * cond.mean();
    second_acc += w * (cond.variance() + cond.mean() * cond.mean());
    total_weight += w;
  }
  if (total_weight <= 0.0) return math::Normal(0.0, 1.0);
  double mean = mean_acc / total_weight;
  double var = second_acc / total_weight - mean * mean;
  *ok = true;
  return math::Normal(mean, std::max(var, 1e-6));
}

}  // namespace tcrowd
