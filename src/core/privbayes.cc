#include "core/privbayes.h"

#include <cmath>

#include "common/check.h"
#include "core/noisy_conditionals.h"
#include "core/private_greedy.h"
#include "core/theta_usefulness.h"
#include "dp/budget.h"

namespace privbayes {

PrivBayes::PrivBayes(PrivBayesOptions options) : options_(options) {
  PB_THROW_IF(options_.beta <= 0 || options_.beta >= 1,
              "beta must be in (0,1), got " << options_.beta);
  PB_THROW_IF(options_.theta <= 0, "theta must be positive");
  bool fully_noiseless = options_.best_network && options_.best_marginal;
  PB_THROW_IF(options_.epsilon <= 0 && !fully_noiseless,
              "epsilon must be positive");
}

PrivBayesModel PrivBayes::Fit(const Dataset& data, Rng& rng) const {
  PB_THROW_IF(data.num_rows() < 2, "need at least 2 rows");
  PB_THROW_IF(data.num_attrs() < 1, "need at least 1 attribute");

  PrivBayesModel model;
  model.original_schema = data.schema();
  model.encoding = options_.encoding;
  model.input_rows = data.num_rows();

  EncodedDataset encoded = ApplyEncoding(data, options_.encoding);
  model.encoder = encoded.encoder;
  model.encoded_schema = encoded.data.schema();
  const Dataset& enc = encoded.data;
  const int d = enc.num_attrs();
  const int64_t n = enc.num_rows();

  model.used_binary_algorithm = model.encoded_schema.AllBinary();
  // The general algorithm caps parent domains by τ from the planned ε2; at
  // ε = 0 (both noiseless ablations) that cap is +∞, and every parent set
  // would be the whole chosen set at full resolution.
  PB_THROW_IF(!model.used_binary_algorithm && options_.epsilon <= 0,
              "epsilon = 0 needs the binary algorithm: the general "
              "algorithm derives its parent-domain cap from the planned "
              "epsilon2, which is 0 here");
  ScoreKind score = options_.score.value_or(
      model.used_binary_algorithm ? ScoreKind::kF : ScoreKind::kR);

  // Budget plan (Thm 3.2): ε1 = β·ε for the network, ε2 = (1−β)·ε for the
  // conditionals. θ-usefulness decisions (k, τ) always use the PLANNED ε2 so
  // the §6.4 ablations change noise, not structure.
  const double eps = options_.epsilon;
  double eps1 = options_.best_network ? 0.0 : options_.beta * eps;
  double eps2_plan = (1.0 - options_.beta) * eps;
  double eps2 = options_.best_marginal ? 0.0 : eps2_plan;

  BudgetAccountant acct(eps > 0 ? eps : 0.0);

  PrivateGreedyOptions greedy;
  greedy.score = score;
  greedy.epsilon1 = eps1;
  greedy.epsilon2_plan = eps2_plan;
  greedy.theta = options_.theta;
  greedy.fixed_k = options_.fixed_k;
  greedy.candidate_cap = options_.candidate_cap;
  greedy.f_max_states = options_.f_max_states;
  greedy.mps_node_budget = options_.mps_node_budget;
  greedy.first_attr = options_.first_attr;

  if (model.used_binary_algorithm) {
    int k = options_.fixed_k >= 0
                ? options_.fixed_k
                : ChooseDegreeK(n, d, eps2_plan, options_.theta);
    if (k == 0) {
      // Degenerate case (§6.4 footnote 6): the only possible structure is
      // the fully independent one, so β is reset to 0 and the whole budget
      // goes to the marginals.
      eps1 = 0.0;
      eps2_plan = eps;
      eps2 = options_.best_marginal ? 0.0 : eps;
      greedy.epsilon1 = 0.0;
      greedy.epsilon2_plan = eps2_plan;
    }
    greedy.fixed_k = k;
    LearnedNetwork learned = LearnNetworkBinary(enc, greedy, rng, &acct);
    model.network = std::move(learned.net);
    model.degree_k = learned.k;
    model.conditionals = NoisyConditionalsBinary(enc, model.network,
                                                 model.degree_k, eps2, rng,
                                                 &acct);
  } else {
    LearnedNetwork learned = LearnNetworkGeneral(enc, greedy, rng, &acct);
    model.network = std::move(learned.net);
    model.degree_k = -1;
    model.conditionals =
        NoisyConditionalsGeneral(enc, model.network, eps2, rng, &acct);
  }

  model.epsilon1 = eps1;
  model.epsilon2 = eps2;
  // Composition audit: spent budget must not exceed ε (Thm 3.2). The
  // accountant aborts on overrun; this check additionally catches
  // under-spending bugs in the normal (no-ablation) path.
  if (!options_.best_network && !options_.best_marginal && eps > 0) {
    PB_CHECK_MSG(std::abs(acct.spent() - (eps1 + eps2)) < 1e-6,
                 "budget accounting mismatch: spent " << acct.spent()
                                                      << " expected "
                                                      << (eps1 + eps2));
  }
  return model;
}

Dataset PrivBayes::Synthesize(const PrivBayesModel& model, int64_t num_rows,
                              Rng& rng) const {
  return SampleSyntheticData(model, num_rows, rng);
}

Dataset PrivBayes::Run(const Dataset& data, Rng& rng) const {
  PrivBayesModel model = Fit(data, rng);
  return SampleSyntheticData(model, data.num_rows(), rng);
}

}  // namespace privbayes
