// Maximal parent sets under a domain-size cap (paper Algorithms 5 and 6).
//
// Given the already-chosen attribute set V and a cap τ on the parent-set
// domain size, Algorithm 5 enumerates every MAXIMAL subset Π ⊆ V with
// |dom(Π)| <= τ (adding any further attribute would break θ-usefulness);
// Algorithm 6 extends this to generalized attributes, where each attribute
// may participate at any taxonomy level and maximality additionally means no
// participating attribute can be made one level less generalized.
//
// The exact recursions are output-sensitive but can still explode (the
// number of maximal sets reaches C(22,7) ≈ 1.7·10^5 on ACS at large ε), so
// BoundedMaximalParentSets runs the exact algorithm under a node budget and
// falls back to a randomized maximal-set sampler — random greedy completion
// to a maximality fixpoint — when the budget trips. The fallback is
// data-independent (it looks only at schema cardinalities and τ), so using
// it before the exponential mechanism costs no privacy: the mechanism is
// ε-DP over any candidate set fixed without looking at the data.

#ifndef PRIVBAYES_CORE_MAXIMAL_PARENT_SETS_H_
#define PRIVBAYES_CORE_MAXIMAL_PARENT_SETS_H_

#include <vector>

#include "common/random.h"
#include "data/attribute.h"

namespace privbayes {

/// Algorithm 5 (flat domains): all maximal Π ⊆ V with |dom(Π)| <= tau.
/// Attributes participate at taxonomy level 0 only. Results are sorted
/// canonically. Exponential worst case — intended for moderate |V| / τ and
/// for tests; production code goes through BoundedMaximalParentSets.
std::vector<std::vector<int>> MaximalParentSetsExact(const Schema& schema,
                                                     std::vector<int> v,
                                                     double tau);

/// Algorithm 6 (generalized attributes): all maximal generalized subsets.
std::vector<std::vector<GenAttr>> MaximalParentSetsGenExact(
    const Schema& schema, std::vector<int> v, double tau);

/// Exact enumeration under `node_budget` recursion nodes; on overflow,
/// switches to randomized greedy-completion sampling. Returns at most
/// `max_results` sets (0 = unlimited, exact only). `use_taxonomies` selects
/// Algorithm 6 vs Algorithm 5 semantics.
std::vector<std::vector<GenAttr>> BoundedMaximalParentSets(
    const Schema& schema, const std::vector<int>& v, double tau,
    bool use_taxonomies, size_t max_results, size_t node_budget, Rng& rng);

/// |dom(Π)| of a generalized set under `schema`.
double GenDomainSize(const Schema& schema, const std::vector<GenAttr>& set);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_MAXIMAL_PARENT_SETS_H_
