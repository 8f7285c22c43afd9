// Shared evaluation tasks for the bench binaries (paper §6.1).
//
// A DatasetBundle packages one of the four evaluation datasets with its
// 80/20 train/test split and the paper's four classification targets.
// Helpers run the two evaluation tasks — average α-way-marginal variation
// distance and SVM misclassification — against any synthetic dataset or
// marginal provider, with the same fixed-seed workload subsample applied to
// every method (README, "Reproducing the paper").

#ifndef PRIVBAYES_BENCH_UTIL_TASKS_H_
#define PRIVBAYES_BENCH_UTIL_TASKS_H_

#include <string>
#include <vector>

#include "core/privbayes.h"
#include "data/generators.h"
#include "query/marginal_workload.h"
#include "svm/linear_svm.h"

namespace privbayes {

/// One evaluation dataset with its derived artifacts.
struct DatasetBundle {
  std::string name;
  Dataset data;   ///< full dataset (count-query task)
  Dataset train;  ///< 80% split (classification task)
  Dataset test;   ///< 20% split
  std::vector<LabelSpec> labels;  ///< the paper's four targets
};

/// Builds the bundle for "NLTCS", "ACS", "Adult" or "BR2000".
DatasetBundle LoadBundle(const std::string& name, uint64_t seed);

/// The paper's α values for the count task: Q3/Q4 on the binary datasets,
/// Q2/Q3 on the mixed ones (§6.1).
std::vector<int> CountAlphasFor(const std::string& dataset_name);

/// The evaluation workload: all α-way marginals, subsampled to
/// `max_queries` with a seed fixed by (dataset, α) so every method sees the
/// same subsample. `full_size` receives |Qα| before subsampling (baselines
/// must pay for the full workload). max_queries = 0 disables subsampling.
MarginalWorkload MakeEvalWorkload(const Schema& schema,
                                  const std::string& dataset_name, int alpha,
                                  size_t max_queries, size_t* full_size);

/// PrivBayes options tuned for bench throughput: paper defaults (β = 0.3,
/// θ = 4, default scores/encoding) plus the data-independent candidate cap.
PrivBayesOptions BenchPrivBayesOptions(double epsilon);

/// Runs PrivBayes end-to-end and returns the synthetic dataset.
Dataset RunPrivBayes(const Dataset& input, const PrivBayesOptions& options,
                     uint64_t seed);

/// Count-task error of a synthetic dataset.
double CountError(const Dataset& real, const MarginalWorkload& workload,
                  const Dataset& synthetic);

/// Classification-task error: train a hinge SVM (C = 1) on `train_like`
/// (synthetic or real) and test on `test`.
double SvmError(const Dataset& train_like, const Dataset& test,
                const LabelSpec& label, uint64_t seed);

}  // namespace privbayes

#endif  // PRIVBAYES_BENCH_UTIL_TASKS_H_
