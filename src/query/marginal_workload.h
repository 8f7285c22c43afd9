// α-way marginal workloads and the paper's count-query error metric (§6.1).
//
// Task 1 of the evaluation: build all α-way marginals Qα of a dataset and
// measure, for each, the total variation distance between the noisy/synthetic
// marginal and the true one; report the average over the workload.
//
// On ACS, |Q4| = C(23,4) = 8,855 marginals; projecting some baselines' full-
// domain tables onto all of them is prohibitive, so a workload can be
// subsampled with a fixed seed — every method is then evaluated on the SAME
// subsample, keeping comparisons fair.

#ifndef PRIVBAYES_QUERY_MARGINAL_WORKLOAD_H_
#define PRIVBAYES_QUERY_MARGINAL_WORKLOAD_H_

#include <functional>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "prob/prob_table.h"

namespace privbayes {

/// A set of marginal queries, each an attribute subset.
struct MarginalWorkload {
  int alpha = 0;
  std::vector<std::vector<int>> attr_sets;

  /// All C(d, α) α-way marginals over `schema` (paper's Qα).
  static MarginalWorkload AllAlphaWay(const Schema& schema, int alpha);

  /// Keeps a uniform subsample of at most `max_queries` marginals (no-op if
  /// the workload already fits).
  void SubsampleTo(size_t max_queries, Rng& rng);

  size_t size() const { return attr_sets.size(); }
};

/// A method under evaluation answers one marginal query: given the attribute
/// set, return the (normalized) marginal table with vars GenVarId(attr).
using MarginalProvider = std::function<ProbTable(const std::vector<int>&)>;

/// Normalized empirical marginal of `data` over `attrs`.
ProbTable EmpiricalMarginal(const Dataset& data, const std::vector<int>& attrs);

/// Average total variation distance over the workload between `provider`'s
/// answers and the true marginals of `real` — the paper's error metric for
/// Figs. 5–6 and 12–15.
double AverageMarginalTvd(const Dataset& real, const MarginalWorkload& workload,
                          const MarginalProvider& provider);

/// Convenience: evaluates a synthetic DATASET as the provider (PrivBayes and
/// MWEM-style methods release data / distributions, not query answers).
double AverageMarginalTvd(const Dataset& real, const MarginalWorkload& workload,
                          const Dataset& synthetic);

}  // namespace privbayes

#endif  // PRIVBAYES_QUERY_MARGINAL_WORKLOAD_H_
