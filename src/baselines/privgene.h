// PrivGene — Zhang et al. [50]: differentially private model fitting with
// genetic algorithms (paper §6.1/§6.6).
//
// A population of candidate SVM weight vectors evolves for r rounds; in each
// round the exponential mechanism (fitness = number of correctly classified
// training tuples, sensitivity 1) privately selects parents, and offspring
// are produced by uniform crossover plus Gaussian mutation whose magnitude
// decays over rounds. The number of rounds scales with ε (each selection
// needs a workable slice of budget), so small ε buys almost no evolution —
// the behaviour visible in Figs. 16–19.
//
// Simplifications vs [50]: a fixed selections-per-round count instead of
// the paper's adaptive schedule, and Gaussian rather than bit-flip mutations
// (the SVM parameter space is continuous here).

#ifndef PRIVBAYES_BASELINES_PRIVGENE_H_
#define PRIVBAYES_BASELINES_PRIVGENE_H_

#include "common/random.h"
#include "svm/linear_svm.h"

namespace privbayes {

/// PrivGene knobs.
struct PrivGeneOptions {
  int population = 100;           ///< candidates per generation
  int parents_per_round = 5;      ///< EM selections per round
  double epsilon_per_selection = 0.005;  ///< sets the round count
  int max_rounds = 12;
  double init_scale = 1.0;        ///< initial candidate magnitude
  double mutation_decay = 0.7;    ///< per-round mutation shrink
};

/// Trains an ε-DP SVM by genetic search.
SvmModel TrainPrivGene(const Dataset& train, const LabelSpec& label,
                       double epsilon, const PrivGeneOptions& options,
                       Rng& rng);

}  // namespace privbayes

#endif  // PRIVBAYES_BASELINES_PRIVGENE_H_
