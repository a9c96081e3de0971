#include "assignment/policies.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "math/entropy.h"
#include "math/statistics.h"

namespace tcrowd {

// ---------------------------------------------------------------- Random --

bool RandomPolicy::SelectTaskExcluding(const Schema& schema,
                                       const AnswerSet& answers,
                                       WorkerId worker,
                                       const std::vector<CellRef>& exclude,
                                       CellRef* out) {
  (void)schema;
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  if (candidates.empty()) return false;
  *out = candidates[rng_.UniformInt(0, static_cast<int>(candidates.size()) - 1)];
  return true;
}

// --------------------------------------------------------------- Looping --

bool LoopingPolicy::SelectTaskExcluding(const Schema& schema,
                                        const AnswerSet& answers,
                                        WorkerId worker,
                                        const std::vector<CellRef>& exclude,
                                        CellRef* out) {
  (void)schema;
  int total = answers.num_rows() * answers.num_cols();
  if (total == 0) return false;
  std::vector<char> excluded = ExclusionBitmap(answers, exclude);
  for (int step = 0; step < total; ++step) {
    int idx = (cursor_ + step) % total;
    CellRef cell{idx / answers.num_cols(), idx % answers.num_cols()};
    if (excluded[idx]) continue;
    if (answers.HasAnswered(worker, cell)) continue;
    cursor_ = (idx + 1) % total;
    *out = cell;
    return true;
  }
  return false;
}

// --------------------------------------------------------------- Entropy --

void ApplyIncrementalAnswer(const Answer& answer, TCrowdState* state) {
  int i = answer.cell.row;
  int j = answer.cell.col;
  if (!state->column_active[j]) return;
  CellPosterior& post =
      state->posteriors[static_cast<size_t>(i) * state->num_cols + j];
  if (post.type == ColumnType::kContinuous) {
    double scale = state->col_scale[j];
    double s = state->AnswerVarianceStd(answer.worker, i, j);
    double z = state->Standardize(j, answer.value.number());
    math::Normal prior(state->Standardize(j, post.mean),
                       post.variance / (scale * scale));
    math::Normal updated = prior.PosteriorGivenObservation(z, s);
    post.mean = state->Unstandardize(j, updated.mean());
    post.variance = updated.variance() * scale * scale;
  } else {
    if (post.probs.empty()) return;
    int L = static_cast<int>(post.probs.size());
    double q = state->CategoricalQuality(answer.worker, i, j);
    double wrong = (1.0 - q) / std::max(1, L - 1);
    double total = 0.0;
    for (int z = 0; z < L; ++z) {
      post.probs[z] *= (z == answer.value.label()) ? q : wrong;
      total += post.probs[z];
    }
    if (total > 0.0) {
      for (double& p : post.probs) p /= total;
    }
  }
}

namespace {

/// The T-Crowd policies' refit: a cold fit when `previous` is null (the
/// first fit), else a fit warm-started from `previous`'s alpha/beta/phi.
/// The chain of refits is deterministic for a given answer sequence and
/// refresh cadence.
TCrowdState WarmRefit(const TCrowdModel& model, const Schema& schema,
                      const AnswerSet& answers, const TCrowdState* previous) {
  if (previous == nullptr) return model.Fit(schema, answers);
  TCrowdWarmStart warm = TCrowdWarmStart::From(*previous);
  return model.Fit(schema, answers, nullptr, &warm);
}

}  // namespace

void EntropyPolicy::Refresh(const Schema& schema, const AnswerSet& answers) {
  state_ = WarmRefit(model_, schema, answers, fitted_ ? &state_ : nullptr);
  fitted_ = true;
}

void EntropyPolicy::Observe(const Schema& schema, const AnswerSet& answers,
                            const Answer& answer) {
  if (!fitted_) {
    Refresh(schema, answers);
    return;
  }
  ApplyIncrementalAnswer(answer, &state_);
}

bool EntropyPolicy::SelectTaskExcluding(const Schema& schema,
                                        const AnswerSet& answers,
                                        WorkerId worker,
                                        const std::vector<CellRef>& exclude,
                                        CellRef* out) {
  if (!fitted_) Refresh(schema, answers);
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  if (candidates.empty()) return false;
  double best = -std::numeric_limits<double>::infinity();
  for (const CellRef& cell : candidates) {
    double h = state_.posterior(cell.row, cell.col).Entropy();
    if (h > best) {
      best = h;
      *out = cell;
    }
  }
  return true;
}

// ---------------------------------------------------------- InherentGain --

void InherentGainPolicy::Refresh(const Schema& schema,
                                 const AnswerSet& answers) {
  state_ = WarmRefit(model_, schema, answers, fitted_ ? &state_ : nullptr);
  fitted_ = true;
}

void InherentGainPolicy::Observe(const Schema& schema,
                                 const AnswerSet& answers,
                                 const Answer& answer) {
  if (!fitted_) {
    Refresh(schema, answers);
    return;
  }
  ApplyIncrementalAnswer(answer, &state_);
}

double InherentGainPolicy::Gain(const AnswerSet& answers, WorkerId worker,
                                CellRef cell) const {
  TCROWD_CHECK(fitted_) << "Refresh() must run before Gain()";
  InformationGain ig(&state_);
  return ig.InherentGain(answers, worker, cell);
}

std::vector<CellRef> InherentGainPolicy::TopCandidates(
    const AnswerSet& answers, WorkerId worker,
    const std::vector<CellRef>& exclude,
    const std::function<double(CellRef)>& score, int k) const {
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  std::vector<double> scores(candidates.size());
  if (pool_ != nullptr) {
    pool_->ParallelFor(candidates.size(),
                       [&](size_t i) { scores[i] = score(candidates[i]); });
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) {
      scores[i] = score(candidates[i]);
    }
  }
  // Each round is the std::max_element scan (first of the maxima) over the
  // candidates not yet taken, so ties and NaN scores resolve exactly as in
  // repeated exclusion.
  std::vector<CellRef> picked;
  std::vector<char> taken(candidates.size(), 0);
  const size_t rounds = std::min(candidates.size(),
                                 static_cast<size_t>(std::max(k, 0)));
  for (size_t n = 0; n < rounds; ++n) {
    size_t best = candidates.size();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i]) continue;
      if (best == candidates.size() || scores[best] < scores[i]) best = i;
    }
    taken[best] = 1;
    picked.push_back(candidates[best]);
  }
  return picked;
}

std::function<double(CellRef)> InherentGainPolicy::Scorer(
    const AnswerSet& answers, WorkerId worker) const {
  InformationGain ig(&state_);
  return [ig, &answers, worker](CellRef cell) {
    return ig.InherentGain(answers, worker, cell);
  };
}

bool InherentGainPolicy::SelectTaskExcluding(
    const Schema& schema, const AnswerSet& answers, WorkerId worker,
    const std::vector<CellRef>& exclude, CellRef* out) {
  std::vector<CellRef> picked =
      SelectTasksExcluding(schema, answers, worker, exclude, 1);
  if (picked.empty()) return false;
  *out = picked.front();
  return true;
}

std::vector<CellRef> InherentGainPolicy::SelectTasksExcluding(
    const Schema& schema, const AnswerSet& answers, WorkerId worker,
    const std::vector<CellRef>& exclude, int k) {
  if (!fitted_) Refresh(schema, answers);
  return TopCandidates(answers, worker, exclude, Scorer(answers, worker), k);
}

// -------------------------------------------------------- StructureAware --

void StructureAwarePolicy::Refresh(const Schema& schema,
                                   const AnswerSet& answers) {
  InherentGainPolicy::Refresh(schema, answers);
  correlation_ = ErrorCorrelationModel::Fit(state_, answers, corr_options_);
}

double StructureAwarePolicy::GainWithEvidence(
    const AnswerSet& answers, WorkerId worker, CellRef cell,
    const std::vector<ObservedError>& evidence) const {
  TCROWD_CHECK(fitted()) << "Refresh() must run before StructureGain()";
  InformationGain ig(&state_);
  if (evidence.empty()) return ig.InherentGain(answers, worker, cell);

  const ColumnSpec& col = state_.schema.column(cell.col);
  if (col.type == ColumnType::kCategorical) {
    // PredictCorrectProb ignores evidence on cell.col itself and reports
    // "no usable evidence" as a negative value, which GainWithAnswerModel
    // maps back to the inherent (model-default) gain.
    double q = correlation_.PredictCorrectProb(cell.col, evidence);
    return ig.GainWithAnswerModel(answers, worker, cell, q, -1.0);
  }
  bool ok = false;
  math::Normal err = correlation_.PredictErrorDist(cell.col, evidence, &ok);
  if (!ok) return ig.InherentGain(answers, worker, cell);
  // A biased error still perturbs the posterior mean, so the effective
  // observation noise is the conditional second moment.
  double var = err.variance() + err.mean() * err.mean();
  return ig.GainWithAnswerModel(answers, worker, cell, -1.0, var);
}

double StructureAwarePolicy::StructureGain(const AnswerSet& answers,
                                           WorkerId worker,
                                           CellRef cell) const {
  return GainWithEvidence(
      answers, worker, cell,
      ErrorCorrelationModel::ObservedErrorsInRow(state_, answers, worker,
                                                 cell.row, cell.col));
}

std::function<double(CellRef)> StructureAwarePolicy::Scorer(
    const AnswerSet& answers, WorkerId worker) const {
  // The worker's evidence sets are a function of (worker, answers) only:
  // build them once, score all candidates against their row's set.
  std::vector<std::vector<ObservedError>> row_evidence =
      ErrorCorrelationModel::BuildRowEvidence(state_, answers, worker);
  return [this, &answers, worker,
          row_evidence = std::move(row_evidence)](CellRef cell) {
    return GainWithEvidence(answers, worker, cell, row_evidence[cell.row]);
  };
}

// ------------------------------------------------------------------ CDAS --

bool CdasPolicy::ComputeTerminated(const Schema& schema,
                                   const AnswerSet& answers,
                                   CellRef cell) const {
  const std::vector<int>& ids = answers.AnswersForCell(cell.row, cell.col);
  if (static_cast<int>(ids.size()) < options_.min_answers) return false;
  const ColumnSpec& col = schema.column(cell.col);
  if (col.type == ColumnType::kCategorical) {
    std::vector<double> counts(col.num_labels(), 0.0);
    for (int id : ids) counts[answers.answer(id).value.label()] += 1.0;
    double top = *std::max_element(counts.begin(), counts.end());
    // Add-one smoothed confidence of the leading label.
    double confidence =
        (top + 1.0) / (static_cast<double>(ids.size()) + col.num_labels());
    return confidence >= options_.confidence_threshold;
  }
  math::OnlineStats cell_stats;
  for (int id : ids) cell_stats.Add(answers.answer(id).value.number());
  double sem = std::sqrt(cell_stats.sample_variance() /
                         static_cast<double>(ids.size()));
  double spread = std::max(col_spread_[cell.col], 1e-9);
  return sem <= options_.sem_fraction * spread;
}

void CdasPolicy::Refresh(const Schema& schema, const AnswerSet& answers) {
  num_cols_ = answers.num_cols();
  terminated_.assign(
      static_cast<size_t>(answers.num_rows()) * answers.num_cols(), false);

  // Column-level answer spread for the continuous termination rule.
  std::vector<math::OnlineStats> col_stats(answers.num_cols());
  for (const Answer& a : answers.answers()) {
    if (a.value.is_continuous()) col_stats[a.cell.col].Add(a.value.number());
  }
  col_spread_.assign(answers.num_cols(), 0.0);
  for (int j = 0; j < answers.num_cols(); ++j) {
    col_spread_[j] = col_stats[j].stddev();
  }

  for (int i = 0; i < answers.num_rows(); ++i) {
    for (int j = 0; j < answers.num_cols(); ++j) {
      terminated_[static_cast<size_t>(i) * answers.num_cols() + j] =
          ComputeTerminated(schema, answers, CellRef{i, j});
    }
  }
}

void CdasPolicy::Observe(const Schema& schema, const AnswerSet& answers,
                         const Answer& answer) {
  if (terminated_.empty()) {
    Refresh(schema, answers);
    return;
  }
  size_t idx =
      static_cast<size_t>(answer.cell.row) * num_cols_ + answer.cell.col;
  if (idx < terminated_.size()) {
    terminated_[idx] = ComputeTerminated(schema, answers, answer.cell);
  }
}

bool CdasPolicy::IsTerminated(CellRef cell) const {
  size_t idx = static_cast<size_t>(cell.row) * num_cols_ + cell.col;
  if (idx >= terminated_.size()) return false;
  return terminated_[idx];
}

bool CdasPolicy::SelectTaskExcluding(const Schema& schema,
                                     const AnswerSet& answers,
                                     WorkerId worker,
                                     const std::vector<CellRef>& exclude,
                                     CellRef* out) {
  if (terminated_.empty()) Refresh(schema, answers);
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  if (candidates.empty()) return false;
  std::vector<CellRef> live;
  for (const CellRef& cell : candidates) {
    if (!IsTerminated(cell)) live.push_back(cell);
  }
  // When every task is confident, CDAS stops asking; to keep spending the
  // experiment's budget comparably, fall back to a random candidate.
  const std::vector<CellRef>& from = live.empty() ? candidates : live;
  *out = from[rng_.UniformInt(0, static_cast<int>(from.size()) - 1)];
  return true;
}

// ---------------------------------------------------------------- AskIt! --

double AskItPolicy::CellUncertainty(const Schema& schema,
                                    const AnswerSet& answers,
                                    CellRef cell) const {
  const std::vector<int>& ids = answers.AnswersForCell(cell.row, cell.col);
  const ColumnSpec& col = schema.column(cell.col);
  if (col.type == ColumnType::kCategorical) {
    if (ids.empty()) {
      return std::log(static_cast<double>(col.num_labels()));
    }
    std::vector<double> counts(col.num_labels(), 0.0);
    for (int id : ids) counts[answers.answer(id).value.label()] += 1.0;
    return math::ShannonEntropy(counts);
  }
  // Differential entropy of the sample-mean estimate in the column's
  // ORIGINAL units — deliberately incomparable with the Shannon branch,
  // as in the original system.
  math::OnlineStats stats;
  for (int id : ids) stats.Add(answers.answer(id).value.number());
  double var;
  if (ids.size() < 2) {
    double span = col.max_value - col.min_value;
    var = span * span / 12.0;  // uniform-prior variance
  } else {
    var = stats.sample_variance() / static_cast<double>(ids.size());
  }
  return math::GaussianDifferentialEntropy(var);
}

void AskItPolicy::Refresh(const Schema& schema, const AnswerSet& answers) {
  num_cols_ = answers.num_cols();
  uncertainty_.assign(
      static_cast<size_t>(answers.num_rows()) * answers.num_cols(), 0.0);
  for (int i = 0; i < answers.num_rows(); ++i) {
    for (int j = 0; j < answers.num_cols(); ++j) {
      uncertainty_[static_cast<size_t>(i) * answers.num_cols() + j] =
          CellUncertainty(schema, answers, CellRef{i, j});
    }
  }
}

void AskItPolicy::Observe(const Schema& schema, const AnswerSet& answers,
                          const Answer& answer) {
  if (uncertainty_.empty()) {
    Refresh(schema, answers);
    return;
  }
  size_t idx =
      static_cast<size_t>(answer.cell.row) * num_cols_ + answer.cell.col;
  if (idx < uncertainty_.size()) {
    uncertainty_[idx] = CellUncertainty(schema, answers, answer.cell);
  }
}

bool AskItPolicy::SelectTaskExcluding(const Schema& schema,
                                      const AnswerSet& answers,
                                      WorkerId worker,
                                      const std::vector<CellRef>& exclude,
                                      CellRef* out) {
  if (uncertainty_.empty()) Refresh(schema, answers);
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  if (candidates.empty()) return false;
  double best = -std::numeric_limits<double>::infinity();
  for (const CellRef& cell : candidates) {
    double h = uncertainty_[static_cast<size_t>(cell.row) * num_cols_ + cell.col];
    if (h > best) {
      best = h;
      *out = cell;
    }
  }
  return true;
}

}  // namespace tcrowd
