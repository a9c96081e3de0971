#include "assignment/policies.h"

#include <algorithm>
#include <cmath>
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

void EntropyPolicy::Refresh(const Schema& schema, const AnswerSet& answers) {
  refit_.Refresh(schema, answers);
}

void EntropyPolicy::Observe(const Schema& schema, const AnswerSet& answers,
                            const Answer& answer) {
  if (!refit_.fitted()) {
    Refresh(schema, answers);
    return;
  }
  refit_.Observe(answer);
}

bool EntropyPolicy::SelectTaskExcluding(const Schema& schema,
                                        const AnswerSet& answers,
                                        WorkerId worker,
                                        const std::vector<CellRef>& exclude,
                                        CellRef* out) {
  if (!refit_.fitted()) Refresh(schema, answers);
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  if (candidates.empty()) return false;
  double best = -std::numeric_limits<double>::infinity();
  for (const CellRef& cell : candidates) {
    double h = refit_.state().posterior(cell.row, cell.col).Entropy();
    if (h > best) {
      best = h;
      *out = cell;
    }
  }
  return true;
}

// ---------------------------------------------------------- InherentGain --

InherentGainPolicy::InherentGainPolicy(BackgroundRefit::FitFn fit,
                                       TCrowdOptions options)
    : refit_(std::move(options), std::move(fit)) {}

void InherentGainPolicy::Refresh(const Schema& schema,
                                 const AnswerSet& answers) {
  refit_.Refresh(schema, answers);
  table_.Rebuild(state());
}

void InherentGainPolicy::Observe(const Schema& schema,
                                 const AnswerSet& answers,
                                 const Answer& answer) {
  if (!fitted()) {
    Refresh(schema, answers);
    return;
  }
  refit_.Observe(answer);
  table_.Update(state(), answer.cell);
}

double InherentGainPolicy::TableGain(CellRef cell, double phi,
                                     double correct_prob,
                                     double answer_variance_std) const {
  const TCrowdState& s = state();
  return CellGain(
      table_.terms(cell),
      s.posteriors[static_cast<size_t>(cell.row) * s.num_cols + cell.col]
          .probs.data(),
      s.options.epsilon, phi, correct_prob, answer_variance_std);
}

double InherentGainPolicy::Gain(const AnswerSet& answers, WorkerId worker,
                                CellRef cell) const {
  (void)answers;  // the state already reflects the collected answers
  TCROWD_CHECK(fitted()) << "Refresh() must run before Gain()";
  return TableGain(cell, state().WorkerPhi(worker));
}

void InherentGainPolicy::ScoreCandidates(const AnswerSet& answers,
                                         WorkerId worker) {
  (void)answers;
  const double phi = state().WorkerPhi(worker);
  ScoreEach([&](CellRef cell) { return TableGain(cell, phi); });
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
  if (!fitted()) Refresh(schema, answers);
  CollectCandidateCells(answers, worker, exclude, &blocked_, &candidates_);
  ScoreCandidates(answers, worker);
  // With the state frozen a cell scores the same in every round, so one
  // scoring serves all k rounds. Each round is the std::max_element scan
  // (first of the maxima) over the candidates not yet taken, so ties and
  // NaN scores resolve exactly as in repeated exclusion: by score
  // descending, row-major among ties.
  const size_t n = candidates_.size();
  const size_t rounds = std::min(n, static_cast<size_t>(std::max(k, 0)));
  std::vector<CellRef> picked;
  picked.reserve(rounds);
  taken_.assign(n, 0);
  for (size_t round = 0; round < rounds; ++round) {
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (taken_[i]) continue;
      if (best == n || scores_[best] < scores_[i]) best = i;
    }
    taken_[best] = 1;
    picked.push_back(candidates_[best]);
  }
  return picked;
}

// -------------------------------------------------------- StructureAware --

void StructureAwarePolicy::Refresh(const Schema& schema,
                                   const AnswerSet& answers) {
  // The next fit is already running on the refit worker; the correlation
  // model is fitted here, against the state just installed.
  InherentGainPolicy::Refresh(schema, answers);
  correlation_ = ErrorCorrelationModel::Fit(state(), answers, corr_options_);
}

double StructureAwarePolicy::GainWithEvidence(
    CellRef cell, double phi, const ObservedError* first,
    const ObservedError* last) const {
  if (first == last) return TableGain(cell, phi);
  if (CellType(cell) == ColumnType::kCategorical) {
    // PredictCorrectProb ignores evidence on cell.col itself and reports
    // "no usable evidence" as a negative value, which CellGain maps back
    // to the inherent (model-default) gain.
    return TableGain(cell, phi,
                     correlation_.PredictCorrectProb(cell.col, first, last));
  }
  bool ok = false;
  math::Normal err =
      correlation_.PredictErrorDist(cell.col, first, last, &ok);
  if (!ok) return TableGain(cell, phi);
  // A biased error still perturbs the posterior mean, so the effective
  // observation noise is the conditional second moment.
  return TableGain(cell, phi, -1.0,
                   err.variance() + err.mean() * err.mean());
}

double StructureAwarePolicy::StructureGain(const AnswerSet& answers,
                                           WorkerId worker,
                                           CellRef cell) const {
  TCROWD_CHECK(fitted()) << "Refresh() must run before StructureGain()";
  std::vector<ObservedError> evidence =
      ErrorCorrelationModel::ObservedErrorsInRow(state(), answers, worker,
                                                 cell.row, cell.col);
  return GainWithEvidence(cell, state().WorkerPhi(worker), evidence.data(),
                          evidence.data() + evidence.size());
}

void StructureAwarePolicy::ScoreCandidates(const AnswerSet& answers,
                                           WorkerId worker) {
  // The worker's evidence sets are a function of (worker, answers) only:
  // build them once, score all candidates against their row's range.
  ErrorCorrelationModel::BuildRowEvidence(state(), answers, worker,
                                          &evidence_);
  const double phi = state().WorkerPhi(worker);
  ScoreEach([&](CellRef cell) {
    return GainWithEvidence(cell, phi, evidence_.begin(cell.row),
                            evidence_.end(cell.row));
  });
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
