// PrivBayes end-to-end (paper §3): the library's main public entry point.
//
//   PrivBayesOptions opts;
//   opts.epsilon = 0.8;               // total budget ε = ε1 + ε2 (Thm 3.2)
//   PrivBayes pb(opts);
//   Rng rng(42);
//   Dataset synthetic = pb.Run(sensitive_data, rng);
//
// Run() executes the three phases: (1) learn a Bayesian network with the
// exponential mechanism at budget ε1 = β·ε; (2) materialize noisy
// conditionals with the Laplace mechanism at ε2 = (1−β)·ε; (3) sample n
// synthetic rows (free). A BudgetAccountant enforces ε1 + ε2 <= ε at
// runtime.
//
// Algorithm selection: if the (encoded) schema is all-binary, the binary
// algorithm is used (fixed degree k from θ-usefulness, score F by default);
// otherwise the general algorithm (maximal parent sets, score R). The
// encoding (§5.1) defaults to Hierarchical, the paper's recommendation.

#ifndef PRIVBAYES_CORE_PRIVBAYES_H_
#define PRIVBAYES_CORE_PRIVBAYES_H_

#include <optional>

#include "core/synthesizer.h"
#include "core/score_functions.h"

namespace privbayes {

/// All user-visible knobs, with the paper's defaults.
struct PrivBayesOptions {
  /// Total privacy budget ε. Must be > 0 unless both ablation flags are set;
  /// even then Fit rejects ε = 0 on general domains, whose parent-domain cap
  /// τ comes from the planned ε2.
  double epsilon = 1.0;
  /// Budget split: ε1 = β·ε for network learning (paper default 0.3, §6.4).
  double beta = 0.3;
  /// θ-usefulness threshold (paper default 4, §6.4).
  double theta = 4.0;
  /// Attribute encoding (§5.1). Hierarchical is the paper's recommendation;
  /// on all-binary data all four coincide.
  EncodingKind encoding = EncodingKind::kHierarchical;
  /// Score function; unset picks F for the binary algorithm and R for the
  /// general algorithm (the paper's choices).
  std::optional<ScoreKind> score;
  /// Overrides the θ-derived degree (binary algorithm only; tests/ablation).
  int fixed_k = -1;
  /// Per-iteration cap on exponential-mechanism candidates (0 = exact
  /// enumeration, the paper's setting; benches cap for speed). The cap
  /// subsamples candidates without looking at the data, so it is
  /// privacy-neutral (README, "Reproducing the paper").
  size_t candidate_cap = 0;
  /// Frontier cap of the F dynamic program (0 = exact).
  size_t f_max_states = 8192;
  /// Node budget for maximal-parent-set enumeration (general algorithm): an
  /// attribute whose recursion tree has more nodes gets sampled maximal
  /// sets instead. Applies only with a candidate cap.
  size_t mps_node_budget = 200000;
  /// First network attribute; -1 = uniformly random (the paper's Line 2).
  int first_attr = -1;
  /// §6.4 ablation: noiseless network learning ("BestNetwork").
  bool best_network = false;
  /// §6.4 ablation: noiseless conditionals ("BestMarginal").
  bool best_marginal = false;
};

/// The PrivBayes mechanism. Thread-compatible: one instance may be shared,
/// each call gets its own Rng.
class PrivBayes {
 public:
  explicit PrivBayes(PrivBayesOptions options);

  /// Phases 1 + 2: returns the fitted model. Total privacy cost is at most
  /// options.epsilon (exactly ε in the normal path; less under ablations).
  PrivBayesModel Fit(const Dataset& data, Rng& rng) const;

  /// Phase 3 on an existing model (free).
  Dataset Synthesize(const PrivBayesModel& model, int64_t num_rows,
                     Rng& rng) const;

  /// Fit + sample data.num_rows() synthetic rows (the paper's evaluation
  /// setting: |D*| = n).
  Dataset Run(const Dataset& data, Rng& rng) const;

  const PrivBayesOptions& options() const { return options_; }

 private:
  PrivBayesOptions options_;
};

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_PRIVBAYES_H_
