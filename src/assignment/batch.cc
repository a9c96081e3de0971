#include <algorithm>

#include "assignment/policy.h"

namespace tcrowd {

std::vector<CellRef> AssignmentPolicy::SelectTasksExcluding(
    const Schema& schema, const AnswerSet& answers, WorkerId worker,
    const std::vector<CellRef>& exclude, int k) {
  // `excluded` accumulates `exclude` plus the picks so far, so no cell is
  // handed out twice in one batch.
  std::vector<CellRef> picked;
  std::vector<CellRef> excluded = exclude;
  for (int n = 0; n < k; ++n) {
    CellRef next;
    if (!SelectTaskExcluding(schema, answers, worker, excluded, &next)) break;
    picked.push_back(next);
    excluded.push_back(next);
  }
  return picked;
}

std::vector<char> ExclusionBitmap(const AnswerSet& answers,
                                  const std::vector<CellRef>& exclude) {
  std::vector<char> excluded(
      static_cast<size_t>(answers.num_rows()) * answers.num_cols(), 0);
  for (const CellRef& cell : exclude) {
    excluded[static_cast<size_t>(cell.row) * answers.num_cols() + cell.col] =
        1;
  }
  return excluded;
}

std::vector<CellRef> CandidateCells(const AnswerSet& answers, WorkerId worker,
                                    const std::vector<CellRef>& exclude) {
  // One pass over the worker's answer log marks everything they already
  // answered in the same bitmap, so the cell scan below is O(1) per cell
  // instead of rescanning the log per cell.
  std::vector<char> excluded = ExclusionBitmap(answers, exclude);
  for (int id : answers.AnswersForWorker(worker)) {
    const CellRef& cell = answers.answer(id).cell;
    excluded[static_cast<size_t>(cell.row) * answers.num_cols() + cell.col] =
        1;
  }
  std::vector<CellRef> out;
  for (int i = 0; i < answers.num_rows(); ++i) {
    for (int j = 0; j < answers.num_cols(); ++j) {
      if (excluded[static_cast<size_t>(i) * answers.num_cols() + j]) continue;
      out.push_back(CellRef{i, j});
    }
  }
  return out;
}

}  // namespace tcrowd
