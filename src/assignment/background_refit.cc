#include "assignment/background_refit.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "math/normal.h"

namespace tcrowd {

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

BackgroundRefit::BackgroundRefit(TCrowdOptions options, FitFn fit)
    : model_(std::move(options)), fit_(std::move(fit)) {
  if (fit_) return;
  fit_ = [this](const Schema& schema, const AnswerMatrixSnapshot& snapshot,
                const TCrowdWarmStart* warm) {
    return model_.Fit(schema, snapshot, nullptr, warm);
  };
}

void BackgroundRefit::Refresh(const Schema& schema, const AnswerSet& answers) {
  if (fitted_) {
    WaitForFit();
    if (fit_failed_) {
      // The observed answers are already applied to the installed state.
      TCROWD_LOG(Warning) << "policy refit failed; keeping the previous fit";
    } else {
      state_ = std::move(job_result_);
      for (const Answer& answer : replay_) {
        ApplyIncrementalAnswer(answer, &state_);
      }
    }
    job_result_ = TCrowdState();
  } else {
    state_ = fit_(schema, model_.BatchSnapshot(schema, answers), nullptr);
    fitted_ = true;
    worker_ = std::make_unique<ThreadPool>(1);
  }

  replay_.clear();
  job_schema_ = schema;
  job_snapshot_ = model_.BatchSnapshot(schema, answers);
  job_warm_ = TCrowdWarmStart::From(state_);
  fit_failed_ = false;
  worker_->Submit([this] {
    job_result_ = fit_(job_schema_, job_snapshot_, &job_warm_);
    // Free the answer log's copy now rather than at the next launch.
    job_snapshot_ = AnswerMatrixSnapshot();
  });
}

void BackgroundRefit::WaitForFit() {
  if (!fitted_) return;  // nothing launched yet
  try {
    worker_->Wait();  // returns at once when the fit has already finished
  } catch (...) {
    fit_failed_ = true;
  }
}

void BackgroundRefit::Observe(const Answer& answer) {
  TCROWD_CHECK(fitted_) << "Refresh() must run before Observe()";
  ApplyIncrementalAnswer(answer, &state_);
  replay_.push_back(answer);
}

}  // namespace tcrowd
