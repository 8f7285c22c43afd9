#include "core/score_functions.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "core/score_f_dp.h"
#include "prob/information.h"

namespace privbayes {

namespace {

double Log2(double x) { return std::log2(x); }

}  // namespace

const char* ScoreName(ScoreKind kind) {
  switch (kind) {
    case ScoreKind::kI:
      return "I";
    case ScoreKind::kF:
      return "F";
    case ScoreKind::kR:
      return "R";
  }
  return "?";
}

double SensitivityI(int64_t n, bool binary_side) {
  PB_THROW_IF(n <= 1, "sensitivity needs n > 1");
  double nd = static_cast<double>(n);
  if (binary_side) {
    return Log2(nd) / nd + (nd - 1) / nd * Log2(nd / (nd - 1));
  }
  return 2.0 / nd * Log2((nd + 1) / 2.0) +
         (nd - 1) / nd * Log2((nd + 1) / (nd - 1));
}

double SensitivityF(int64_t n) {
  PB_THROW_IF(n <= 0, "sensitivity needs n > 0");
  return 1.0 / static_cast<double>(n);
}

double SensitivityR(int64_t n) {
  PB_THROW_IF(n <= 0, "sensitivity needs n > 0");
  double nd = static_cast<double>(n);
  return 3.0 / nd + 2.0 / (nd * nd);
}

double ScoreSensitivity(ScoreKind kind, int64_t n, bool binary_side) {
  switch (kind) {
    case ScoreKind::kI:
      return SensitivityI(n, binary_side);
    case ScoreKind::kF:
      return SensitivityF(n);
    case ScoreKind::kR:
      return SensitivityR(n);
  }
  PB_CHECK(false);
}

double ScoreI(const ProbTable& joint_counts, int64_t n) {
  return ScoreIForChild(joint_counts, joint_counts.vars().empty()
                                          ? -1
                                          : joint_counts.vars().back(),
                        n);
}

double ScoreR(const ProbTable& joint_counts, int64_t n) {
  return ScoreRForChild(joint_counts, joint_counts.vars().empty()
                                          ? -1
                                          : joint_counts.vars().back(),
                        n);
}

double ScoreIForChild(const ProbTable& joint_counts, int child_var,
                      int64_t n) {
  if (joint_counts.num_vars() <= 1) return 0.0;  // I(X; ∅) = 0
  PB_THROW_IF(n <= 0, "scores need n > 0");
  ProbTable probs = joint_counts;
  for (double& v : probs.values()) v /= static_cast<double>(n);
  return MutualInformation(probs, child_var);
}

double ScoreRForChild(const ProbTable& joint_counts, int child_var,
                      int64_t n) {
  PB_THROW_IF(n <= 0, "scores need n > 0");
  if (joint_counts.num_vars() <= 1) return 0.0;  // independent of nothing
  ProbTable probs = joint_counts;
  for (double& v : probs.values()) v /= static_cast<double>(n);
  int child[1] = {child_var};
  ProbTable indep = IndependentProduct(probs, child);
  return 0.5 * probs.L1Distance(indep);
}

double ScoreFForChild(const ProbTable& joint_counts, int child_var, int64_t n,
                      size_t max_states) {
  PB_THROW_IF(n <= 0, "scores need n > 0");
  const int pos = joint_counts.FindVar(child_var);
  PB_THROW_IF(pos < 0, "child variable not in table");
  PB_THROW_IF(joint_counts.card(pos) != 2,
              "F requires a binary child (Thm 5.1: general case is NP-hard)");
  // The (X=0, X=1) pair of each parent value sits `stride` cells apart.
  // Walking the X=0 cells in increasing flat index visits the parent values
  // in the order a child-last Reorder would lay them out, so no permuted
  // copy is needed and the DP sees the same column sequence.
  size_t stride = 1;
  for (int v = pos + 1; v < joint_counts.num_vars(); ++v) {
    stride *= static_cast<size_t>(joint_counts.card(v));
  }
  thread_local std::vector<FColumn> columns;
  columns.clear();
  for (size_t block = 0; block < joint_counts.size(); block += 2 * stride) {
    for (size_t f = block; f < block + stride; ++f) {
      columns.push_back(
          {static_cast<int64_t>(std::llround(joint_counts[f])),
           static_cast<int64_t>(std::llround(joint_counts[f + stride]))});
    }
  }
  return ScoreFFromColumns(columns, n, max_states);
}

double ComputeScoreForChild(ScoreKind kind, const ProbTable& joint_counts,
                            int child_var, int64_t n, size_t f_max_states) {
  switch (kind) {
    case ScoreKind::kI:
      return ScoreIForChild(joint_counts, child_var, n);
    case ScoreKind::kF:
      return ScoreFForChild(joint_counts, child_var, n, f_max_states);
    case ScoreKind::kR:
      return ScoreRForChild(joint_counts, child_var, n);
  }
  PB_CHECK(false);
}

double ScoreF(const ProbTable& joint_counts, int64_t n, size_t max_states) {
  PB_THROW_IF(joint_counts.num_vars() < 1, "F needs a child variable");
  return ScoreFForChild(joint_counts, joint_counts.vars().back(), n,
                        max_states);
}

double ComputeScore(ScoreKind kind, const ProbTable& joint_counts, int64_t n,
                    size_t f_max_states) {
  switch (kind) {
    case ScoreKind::kI:
      return ScoreI(joint_counts, n);
    case ScoreKind::kF:
      return ScoreF(joint_counts, n, f_max_states);
    case ScoreKind::kR:
      return ScoreR(joint_counts, n);
  }
  PB_CHECK(false);
}

}  // namespace privbayes
