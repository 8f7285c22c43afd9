// Tests for core/maximal_parent_sets: Algorithms 5/6 against brute-force
// enumeration of maximal feasible (generalized) subsets, plus the bounded
// fallback sampler's maximality guarantee, plus golden sequences that pin
// the exact, subsampled and fallback branches bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "core/maximal_parent_sets.h"
#include "core/theta_usefulness.h"
#include "data/generators.h"

namespace privbayes {
namespace {

Schema FlatSchema(std::vector<int> cards) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < cards.size(); ++i) {
    attrs.push_back(
        Attribute::Categorical("a" + std::to_string(i), cards[i]));
  }
  return Schema(std::move(attrs));
}

Schema TaxSchema() {
  // a0: 4 leaves with binary tree (4 -> 2); a1: flat 3; a2: 8 leaves with
  // tree 8 -> 4 -> 2.
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Continuous("a0", 0, 4, 4));
  attrs.push_back(Attribute::Categorical("a1", 3));
  attrs.push_back(Attribute::Continuous("a2", 0, 8, 8));
  return Schema(std::move(attrs));
}

// Canonical form for comparisons.
std::set<std::vector<GenAttr>> Canon(std::vector<std::vector<GenAttr>> sets) {
  std::set<std::vector<GenAttr>> out;
  for (auto& s : sets) {
    std::sort(s.begin(), s.end());
    out.insert(s);
  }
  return out;
}

// Brute force: enumerate every generalized subset of v (each attr absent or
// at some level), keep feasible ones (domain <= tau), then keep maximal
// ones: no feasible strict "refinement" (superset of attrs, each shared
// attr at <= level).
std::set<std::vector<GenAttr>> BruteForceGen(const Schema& schema,
                                             const std::vector<int>& v,
                                             double tau,
                                             bool use_taxonomies) {
  std::vector<std::vector<GenAttr>> all;
  size_t m = v.size();
  std::vector<int> options(m);  // options per attr: levels + "absent"
  for (size_t i = 0; i < m; ++i) {
    options[i] =
        (use_taxonomies ? schema.attr(v[i]).taxonomy.num_levels() : 1) + 1;
  }
  std::vector<int> state(m, 0);
  for (;;) {
    std::vector<GenAttr> set;
    for (size_t i = 0; i < m; ++i) {
      if (state[i] > 0) set.push_back(GenAttr{v[i], state[i] - 1});
    }
    if (GenDomainSize(schema, set) <= tau) all.push_back(set);
    size_t pos = 0;
    while (pos < m && ++state[pos] == options[pos]) state[pos++] = 0;
    if (pos == m) break;
  }
  // "above" relation: b strictly refines a.
  auto refines = [](const std::vector<GenAttr>& a,
                    const std::vector<GenAttr>& b) {
    if (a.size() > b.size()) return false;
    bool strict = b.size() > a.size();
    for (const GenAttr& ga : a) {
      bool found = false;
      for (const GenAttr& gb : b) {
        if (gb.attr == ga.attr) {
          if (gb.level > ga.level) return false;
          if (gb.level < ga.level) strict = true;
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return strict;
  };
  std::vector<std::vector<GenAttr>> maximal;
  for (const auto& a : all) {
    bool dominated = false;
    for (const auto& b : all) {
      if (refines(a, b)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(a);
  }
  return Canon(maximal);
}

TEST(MaximalParentSets, FlatBinaryMatchesSubsetsOfSizeK) {
  // 4 binary attributes, tau = 4: maximal sets are exactly the 2-subsets.
  Schema s = FlatSchema({2, 2, 2, 2});
  auto sets = MaximalParentSetsExact(s, {0, 1, 2, 3}, 4.0);
  EXPECT_EQ(sets.size(), 6u);
  for (const auto& set : sets) EXPECT_EQ(set.size(), 2u);
}

TEST(MaximalParentSets, TauBelowOneIsEmpty) {
  Schema s = FlatSchema({2, 2});
  EXPECT_TRUE(MaximalParentSetsExact(s, {0, 1}, 0.5).empty());
}

TEST(MaximalParentSets, EmptyVGivesEmptySet) {
  Schema s = FlatSchema({2});
  auto sets = MaximalParentSetsExact(s, {}, 4.0);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_TRUE(sets[0].empty());
}

TEST(MaximalParentSets, MixedCardinalities) {
  // cards {2, 3, 4}, tau = 6: feasible subsets {}, {0}, {1}, {2}, {0,1}(6);
  // {0,2} = 8 ✗, {1,2} = 12 ✗. Maximal: {0,1} and {2}.
  Schema s = FlatSchema({2, 3, 4});
  auto sets = Canon([&] {
    std::vector<std::vector<GenAttr>> gen;
    for (auto& flat : MaximalParentSetsExact(s, {0, 1, 2}, 6.0)) {
      std::vector<GenAttr> g;
      for (int a : flat) g.push_back(GenAttr{a, 0});
      gen.push_back(std::move(g));
    }
    return gen;
  }());
  std::set<std::vector<GenAttr>> expect = {
      {GenAttr{0, 0}, GenAttr{1, 0}}, {GenAttr{2, 0}}};
  EXPECT_EQ(sets, expect);
}

TEST(MaximalParentSets, FlatMatchesBruteForceRandomized) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    int m = 2 + static_cast<int>(rng.UniformInt(4));
    std::vector<int> cards;
    std::vector<int> v;
    for (int i = 0; i < m; ++i) {
      cards.push_back(2 + static_cast<int>(rng.UniformInt(3)));
      v.push_back(i);
    }
    Schema s = FlatSchema(cards);
    double tau = 1 + rng.Uniform() * 30;
    auto got = Canon([&] {
      std::vector<std::vector<GenAttr>> gen;
      for (auto& flat : MaximalParentSetsExact(s, v, tau)) {
        std::vector<GenAttr> g;
        for (int a : flat) g.push_back(GenAttr{a, 0});
        gen.push_back(std::move(g));
      }
      return gen;
    }());
    auto expect = BruteForceGen(s, v, tau, /*use_taxonomies=*/false);
    EXPECT_EQ(got, expect) << "seed " << seed << " tau " << tau;
  }
}

TEST(MaximalParentSets, GeneralizedMatchesBruteForce) {
  Schema s = TaxSchema();
  std::vector<int> v = {0, 1, 2};
  for (double tau : {1.0, 2.0, 4.0, 6.0, 12.0, 24.0, 100.0}) {
    auto got = Canon(MaximalParentSetsGenExact(s, v, tau));
    auto expect = BruteForceGen(s, v, tau, /*use_taxonomies=*/true);
    EXPECT_EQ(got, expect) << "tau " << tau;
  }
}

TEST(MaximalParentSets, GeneralizedPrefersLessGeneralized) {
  // One attribute with tree 8 -> 4 -> 2; tau = 4 admits level 1 (card 4) but
  // not level 0 (card 8). The unique maximal set is {a2(1)}.
  Schema s = TaxSchema();
  auto got = MaximalParentSetsGenExact(s, {2}, 4.0);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].size(), 1u);
  EXPECT_EQ(got[0][0].attr, 2);
  EXPECT_EQ(got[0][0].level, 1);
}

TEST(BoundedMps, ExactWhenWithinBudget) {
  Schema s = FlatSchema({2, 2, 2, 2});
  Rng rng(1);
  auto bounded = BoundedMaximalParentSets(s, {0, 1, 2, 3}, 4.0, false,
                                          /*max_results=*/100,
                                          /*node_budget=*/100000, rng);
  EXPECT_EQ(bounded.size(), 6u);
}

TEST(BoundedMps, CapsResults) {
  Schema s = FlatSchema({2, 2, 2, 2, 2, 2, 2, 2});
  Rng rng(2);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto bounded =
      BoundedMaximalParentSets(s, v, 16.0, false, 5, 100000, rng);
  EXPECT_EQ(bounded.size(), 5u);
  for (const auto& set : bounded) EXPECT_EQ(set.size(), 4u);
}

TEST(BoundedMps, FallbackSamplerProducesMaximalFeasibleSets) {
  // Force the fallback with a tiny node budget; every returned set must be
  // feasible and maximal (validated against the brute-force refinement
  // relation).
  Schema s = TaxSchema();
  std::vector<int> v = {0, 1, 2};
  Rng rng(3);
  auto sampled = BoundedMaximalParentSets(s, v, 12.0, true, 20,
                                          /*node_budget=*/2, rng);
  ASSERT_FALSE(sampled.empty());
  auto maximal = BruteForceGen(s, v, 12.0, true);
  for (auto set : sampled) {
    EXPECT_LE(GenDomainSize(s, set), 12.0);
    std::sort(set.begin(), set.end());
    EXPECT_TRUE(maximal.count(set))
        << "sampled set is not maximal";
  }
}

// Size of Algorithm 6's recursion tree over v[0..m), counted the way the
// node budget counts it: one per call, the tau < 1 and m = 0 leaves
// included. Stops counting once it reaches `limit`.
size_t NaiveTreeSize(const Schema& schema, const std::vector<int>& v, int m,
                     double tau, size_t limit) {
  size_t nodes = 0;
  auto recurse = [&](auto&& self, int mm, double t) -> void {
    if (nodes >= limit) return;
    ++nodes;
    if (t < 1 || mm == 0) return;
    int x = v[mm - 1];
    for (int level = 0; level < schema.attr(x).taxonomy.num_levels();
         ++level) {
      self(self, mm - 1, t / schema.CardinalityAt(x, level));
    }
    self(self, mm - 1, t);
  };
  recurse(recurse, m, tau);
  return nodes;
}

// FNV-1a over every returned set, its size and its order.
struct SetChecksum {
  uint64_t hash = 1469598103934665603ull;
  uint64_t sets = 0;
  void Add(uint64_t word) {
    hash ^= word;
    hash *= 1099511628211ull;
  }
  void Add(const std::vector<std::vector<GenAttr>>& family) {
    Add(family.size());
    for (const std::vector<GenAttr>& set : family) {
      Add(set.size());
      for (const GenAttr& g : set) {
        Add(static_cast<uint64_t>(g.attr));
        Add(static_cast<uint64_t>(g.level));
      }
    }
    sets += family.size();
  }
};

// The enumeration sequence of a general learn on the hierarchical Adult
// schema: a seeded attribute order, and in every round one bounded call per
// remaining attribute with the learner's per-attribute cap (candidate cap
// 200), τ from θ-usefulness at ε2 = 0.56, θ = 4, and the default node budget.
// Tallies which branch each call takes by the naive tree size.
struct BranchTally {
  int exact = 0, subsampled = 0, fallback = 0;
};

SetChecksum GreedySequence(int64_t n, uint64_t seed, BranchTally* tally) {
  const Schema schema = MakeAdult(1, 100).schema();
  const int d = schema.num_attrs();
  const size_t budget = 200000;
  Rng rng(seed);
  std::vector<int> order(d);
  for (int a = 0; a < d; ++a) order[a] = a;
  rng.Shuffle(order);
  SetChecksum sum;
  for (int r = 1; r < d; ++r) {
    std::vector<int> chosen(order.begin(), order.begin() + r);
    std::vector<int> remaining(order.begin() + r, order.end());
    size_t per_attr_cap = std::max<size_t>(16, 200 / remaining.size());
    for (int x : remaining) {
      double tau = ParentDomainCap(n, d, 0.56, 4.0, schema.Cardinality(x));
      if (tally != nullptr) {
        if (NaiveTreeSize(schema, chosen, r, tau, budget + 1) > budget) {
          ++tally->fallback;
        } else if (MaximalParentSetsGenExact(schema, chosen, tau).size() >
                   per_attr_cap) {
          ++tally->subsampled;
        } else {
          ++tally->exact;
        }
      }
      sum.Add(BoundedMaximalParentSets(schema, chosen, tau,
                                       /*use_taxonomies=*/true, per_attr_cap,
                                       budget, rng));
    }
  }
  // Pins how much of the stream the sequence consumed.
  sum.Add(rng.UniformInt(uint64_t{1} << 62));
  return sum;
}

TEST(BoundedMps, GreedySequenceMatchesGolden) {
  struct Golden {
    int64_t n;
    uint64_t sets, hash;
  };
  const Golden golden[] = {
      {45222, 2151, 0x82057999bd6e286full},
      {250000, 2362, 0x1ecaac2902356c0aull},
      {20000000, 2016, 0x1c7c7f97f2bde0aaull},
  };
  BranchTally tally;
  for (const Golden& g : golden) {
    SetChecksum sum = GreedySequence(g.n, 20140614 + g.n, &tally);
    EXPECT_EQ(sum.sets, g.sets) << "n " << g.n;
    EXPECT_EQ(sum.hash, g.hash) << "n " << g.n;
  }
  // The sequences cover all three branches (153 exact, 142 subsampled and
  // 20 fallback calls).
  EXPECT_GT(tally.exact, 0);
  EXPECT_GT(tally.subsampled, 0);
  EXPECT_GT(tally.fallback, 0);
}

// The fallback trips exactly when the recursion tree has more than
// `node_budget` nodes: a budget of T (the tree size) enumerates, T - 1
// samples. An off-by-one in the node count fails one side.
TEST(BoundedMps, NodeBudgetBoundaryIsExact) {
  const Schema schema = MakeAdult(1, 100).schema();
  const std::vector<int> v = {3, 0, 7, 5, 11, 2};
  for (double tau : {40.0, 600.0, 9000.0}) {
    const size_t tree = NaiveTreeSize(schema, v, static_cast<int>(v.size()),
                                      tau, SIZE_MAX);
    ASSERT_GT(tree, 1u);
    const std::vector<std::vector<GenAttr>> exact =
        MaximalParentSetsGenExact(schema, v, tau);
    const size_t cap = exact.size() + 8;
    Rng fallback_rng(5);
    const std::vector<std::vector<GenAttr>> fallback =
        BoundedMaximalParentSets(schema, v, tau, true, cap,
                                 /*node_budget=*/1, fallback_rng);
    ASSERT_NE(exact, fallback) << "tau " << tau;

    Rng at_rng(5);
    EXPECT_EQ(BoundedMaximalParentSets(schema, v, tau, true, cap, tree, at_rng),
              exact)
        << "tau " << tau << " budget " << tree;
    Rng below_rng(5);
    EXPECT_EQ(
        BoundedMaximalParentSets(schema, v, tau, true, cap, tree - 1, below_rng),
        fallback)
        << "tau " << tau << " budget " << tree - 1;
  }
}

// A learn queries one enumerator for the whole greedy sequence: every call
// must return what a fresh enumerator returns, with the same Rng draws.
TEST(MaximalParentSetEnumerator, OneEnumeratorPerLearnMatchesFreshCalls) {
  const Schema schema = MakeAdult(1, 100).schema();
  const int d = schema.num_attrs();
  for (int64_t n : {45222, 250000, 20000000}) {
    MaximalParentSetEnumerator shared(schema, /*use_taxonomies=*/true, 200000);
    Rng shared_rng(n), fresh_rng(n);
    std::vector<int> order(d);
    for (int a = 0; a < d; ++a) order[a] = a;
    shared_rng.Shuffle(order);
    fresh_rng.Shuffle(order);
    for (int r = 1; r < d; ++r) {
      std::vector<int> chosen(order.begin(), order.begin() + r);
      size_t per_attr_cap = std::max<size_t>(16, 200 / (d - r));
      for (int i = r; i < d; ++i) {
        double tau =
            ParentDomainCap(n, d, 0.56, 4.0, schema.Cardinality(order[i]));
        ASSERT_EQ(shared.Bounded(chosen, tau, per_attr_cap, shared_rng),
                  BoundedMaximalParentSets(schema, chosen, tau, true,
                                           per_attr_cap, 200000, fresh_rng))
            << "n " << n << " round " << r << " attr " << order[i];
      }
    }
    EXPECT_EQ(shared_rng.UniformInt(1 << 30), fresh_rng.UniformInt(1 << 30));
  }
}

// The memo is keyed by prefix length, so a query whose V diverges from the
// previous one after p entries must not reuse entries for m > p. Attribute
// 14 (42 / 7 / 4 values) differs in cardinality from attribute 7 (16 / 8 /
// 4 / 2), so stale entries would return other sets and other tree sizes.
TEST(MaximalParentSetEnumerator, PrefixChangeDropsStaleEntries) {
  const Schema schema = MakeAdult(1, 100).schema();
  const std::vector<std::vector<int>> queries = {
      {4, 7, 11}, {4, 14}, {4, 7, 11}, {4, 14, 2}};
  for (double tau : {8.0, 60.0, 500.0}) {
    MaximalParentSetEnumerator shared(schema, /*use_taxonomies=*/true,
                                      /*node_budget=*/12);
    for (const std::vector<int>& v : queries) {
      EXPECT_EQ(shared.Exact(v, tau), MaximalParentSetsGenExact(schema, v, tau))
          << "tau " << tau << " |v| " << v.size();
      Rng shared_rng(9), fresh_rng(9);
      EXPECT_EQ(shared.Bounded(v, tau, 3, shared_rng),
                BoundedMaximalParentSets(schema, v, tau, true, 3, 12,
                                         fresh_rng))
          << "tau " << tau << " |v| " << v.size();
    }
  }
}

TEST(GenDomainSizeFn, MultipliesLevelCards) {
  Schema s = TaxSchema();
  std::vector<GenAttr> set = {GenAttr{0, 1}, GenAttr{2, 2}};  // 2 * 2
  EXPECT_DOUBLE_EQ(GenDomainSize(s, set), 4.0);
  EXPECT_DOUBLE_EQ(GenDomainSize(s, {}), 1.0);
}

}  // namespace
}  // namespace privbayes
