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
// bounded enumeration runs the exact algorithm only when its recursion tree
// has at most `node_budget` nodes, and otherwise falls back to a randomized
// maximal-set sampler — random greedy completion to a maximality fixpoint.
// The fallback is data-independent (it looks only at schema cardinalities
// and τ), so using it before the exponential mechanism costs no privacy: the
// mechanism is ε-DP over any candidate set fixed without looking at the data.
//
// MaximalParentSetEnumerator memoizes Algorithm 6 for one learn:
//   - Memo. The family of maximal sets over v[0..m) under τ depends only on
//     v[0..m), τ and the schema, so it is kept per (m, τ), with τ compared
//     by exact equality (τ may be +∞). The greedy learner only appends to V,
//     so one learn reuses every family, across the remaining attributes of
//     a round (equal cardinalities give equal τ) and across rounds (each
//     round's recursion contains the previous one's). A query whose V
//     shares only its first p entries with the previous query's drops every
//     entry with m > p.
//   - Exact budget. A node is one call of the recursion, the τ < 1 and
//     m = 0 leaves included; the fallback runs exactly when the whole tree
//     has more than `node_budget` nodes. The tree size is itself memoized
//     per (m, τ) and saturates at node_budget + 1, so a tripped budget costs
//     at most that many distinct states, not a walk of the tree.
//   - Codes. A set over v[0..m) is m code bytes, one per position of V:
//     level + 1, or 0 when the attribute is absent. A family is one flat
//     array of such rows, deduplicated on those bytes, in the recursion's
//     order (levels ascending, each child family in order, skipping sets
//     already paired, then the "absent" pass). Only returned sets are
//     decoded to canonical (attribute-sorted) GenAttr lists.
//   - Lifetime. An enumerator belongs to one learn (LearnNetworkGeneral
//     owns one) and is not thread-safe; concurrent learns share nothing.
//     The free functions below build a fresh enumerator per call.

#ifndef PRIVBAYES_CORE_MAXIMAL_PARENT_SETS_H_
#define PRIVBAYES_CORE_MAXIMAL_PARENT_SETS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "data/attribute.h"

namespace privbayes {

/// Memoized Algorithms 5/6 over a growing chosen set V (see above).
class MaximalParentSetEnumerator {
 public:
  /// `use_taxonomies` selects Algorithm 6 vs Algorithm 5 semantics;
  /// `node_budget` 0 means no budget (always exact).
  MaximalParentSetEnumerator(const Schema& schema, bool use_taxonomies,
                             size_t node_budget);

  /// Every maximal set of `v` under `tau`, canonical, in Algorithm 6's
  /// order. Ignores the node budget.
  std::vector<std::vector<GenAttr>> Exact(const std::vector<int>& v,
                                          double tau);

  /// The exact family when its recursion tree fits the node budget, else
  /// sets from the fallback sampler. Returns at most `max_results` sets
  /// (0 = unlimited, exact only); a larger exact family is subsampled
  /// uniformly with `rng`.
  std::vector<std::vector<GenAttr>> Bounded(const std::vector<int>& v,
                                            double tau, size_t max_results,
                                            Rng& rng);

 private:
  struct Family {
    size_t count = 0;
    std::vector<uint8_t> codes;  // count rows of m code bytes
  };
  struct Entry {
    size_t nodes = 0;  // recursion-tree size, saturated; 0 = not counted
    bool built = false;
    Family family;
  };

  void Reset(const std::vector<int>& v);
  size_t TreeSize(int m, double tau);
  const Family& Build(int m, double tau);
  std::vector<GenAttr> Decode(const Family& family, int m, size_t row) const;
  int LevelsOf(int attr) const;

  const Schema& schema_;
  bool use_taxonomies_;
  size_t node_budget_;
  std::vector<int> v_;
  // memo_[m] maps the bits of τ to the (m, τ) entry. Entries are never
  // erased during a query, so references to families stay valid.
  std::vector<std::unordered_map<uint64_t, Entry>> memo_;
  std::vector<uint32_t> slots_;  // dedup hash table, reused by Build
  Family empty_;                 // τ < 1: no set
  Family unit_;                  // m = 0: the empty set
};

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

/// Exact enumeration when the recursion tree has at most `node_budget` nodes
/// (0 = unlimited); otherwise randomized greedy-completion sampling. Returns
/// at most `max_results` sets (0 = unlimited, exact only). `use_taxonomies`
/// selects Algorithm 6 vs Algorithm 5 semantics. One-shot form of
/// MaximalParentSetEnumerator::Bounded.
std::vector<std::vector<GenAttr>> BoundedMaximalParentSets(
    const Schema& schema, const std::vector<int>& v, double tau,
    bool use_taxonomies, size_t max_results, size_t node_budget, Rng& rng);

/// |dom(Π)| of a generalized set under `schema`.
double GenDomainSize(const Schema& schema, const std::vector<GenAttr>& set);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_MAXIMAL_PARENT_SETS_H_
