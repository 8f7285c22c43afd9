// Non-private GreedyBayes (paper Algorithm 2) and candidate enumeration.
//
// Algorithm 2 extends Chow–Liu trees to degree k: starting from a random
// attribute, each iteration adds the AP pair with maximal mutual information
// among all (X, Π) with X not yet chosen and Π an (up to) k-subset of the
// chosen set V. The private variant (core/private_greedy) reuses the same
// candidate enumeration and merely swaps the argmax for the exponential
// mechanism, so the enumeration lives here.
//
// The candidate count is d·C(d+1, k+1) over a full run (§4.1) — hours of
// compute for k ≥ 6. `candidate_cap` optionally subsamples each iteration's
// candidate set uniformly at random; the subsample is data-independent, so
// the private variant's DP guarantee is unaffected: the exponential
// mechanism is ε-DP over any candidate set fixed before it looks at the
// data (README, "Reproducing the paper").

#ifndef PRIVBAYES_BN_GREEDY_BAYES_H_
#define PRIVBAYES_BN_GREEDY_BAYES_H_

#include <cstddef>
#include <vector>

#include "bn/bayes_net.h"
#include "common/random.h"

namespace privbayes {

/// All AP candidates for one iteration of Algorithm 2: for each remaining
/// attribute X, every Π ∈ (V choose min(k, |V|)) — parent-set size is
/// exactly min(k, |V|), which guarantees the chain property the binary
/// NoisyConditionals derivation needs (Π_i = V for i <= k+1). Parents are at
/// taxonomy level 0.
std::vector<APPair> EnumerateCandidatesFixedK(std::vector<int> chosen,
                                              const std::vector<int>& remaining,
                                              int k);

/// Uniformly subsamples `candidates` down to `cap` in place (no-op when it
/// already fits). The subsample is independent of the data.
void CapCandidates(std::vector<APPair>& candidates, size_t cap, Rng& rng);

/// |remaining| · C(|chosen|, min(k, |chosen|)), clamped to `limit` (guards
/// overflow; C(48, 6) alone exceeds 10^7 on binarized Adult).
size_t CandidateSpaceSize(size_t num_chosen, size_t num_remaining, int k,
                          size_t limit);

/// Candidate set for one iteration, capped at `cap` (0 = exact). When the
/// full space is small it is enumerated exactly and subsampled; when it is
/// huge, `cap` DISTINCT candidates are drawn directly at random (uniform X,
/// uniform parent subset) — the enumerate-then-subsample route would
/// materialize millions of subsets. Either way the randomness is
/// data-independent, so the private caller's DP guarantee is unaffected.
std::vector<APPair> EnumerateOrSampleCandidatesFixedK(
    const std::vector<int>& chosen, const std::vector<int>& remaining, int k,
    size_t cap, Rng& rng);

/// Parameters for the non-private greedy construction.
struct GreedyBayesOptions {
  int k = 1;                      ///< network degree
  size_t candidate_cap = 0;       ///< 0 = exact enumeration
  int first_attr = -1;            ///< -1 = pick uniformly at random
};

/// Algorithm 2: non-private greedy network with the exact mutual-information
/// score. With k = 1 and no cap this is exactly Chow–Liu. This is also the
/// "NoPrivacy" line of Fig. 4.
BayesNet GreedyBayesNonPrivate(const Dataset& data,
                               const GreedyBayesOptions& options, Rng& rng);

}  // namespace privbayes

#endif  // PRIVBAYES_BN_GREEDY_BAYES_H_
