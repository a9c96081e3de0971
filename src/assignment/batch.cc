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

void CollectCandidateCells(const AnswerSet& answers, WorkerId worker,
                           const std::vector<CellRef>& exclude,
                           std::vector<char>* blocked,
                           std::vector<CellRef>* out) {
  // One pass over the worker's answer log marks everything they already
  // answered in the exclusion bitmap, so the cell scan below is O(1) per
  // cell instead of rescanning the log per cell.
  const int rows = answers.num_rows();
  const int cols = answers.num_cols();
  blocked->assign(static_cast<size_t>(rows) * cols, 0);
  char* b = blocked->data();
  for (const CellRef& cell : exclude) {
    b[static_cast<size_t>(cell.row) * cols + cell.col] = 1;
  }
  for (int id : answers.AnswersForWorker(worker)) {
    const CellRef& cell = answers.answer(id).cell;
    b[static_cast<size_t>(cell.row) * cols + cell.col] = 1;
  }
  out->clear();
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (!*b++) out->push_back(CellRef{i, j});
    }
  }
}

std::vector<CellRef> CandidateCells(const AnswerSet& answers, WorkerId worker,
                                    const std::vector<CellRef>& exclude) {
  std::vector<char> blocked;
  std::vector<CellRef> out;
  CollectCandidateCells(answers, worker, exclude, &blocked, &out);
  return out;
}

}  // namespace tcrowd
