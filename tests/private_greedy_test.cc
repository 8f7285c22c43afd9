// Tests for core/private_greedy: structural guarantees, budget charging,
// noiseless-selection equivalence, quality ordering in ε.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "bn/greedy_bayes.h"
#include "core/maximal_parent_sets.h"
#include "core/private_greedy.h"
#include "core/theta_usefulness.h"
#include "data/generators.h"
#include "data/marginal_store.h"

namespace privbayes {
namespace {

TEST(PrivateGreedyBinary, StructureAndChainProperty) {
  Dataset data = MakeNltcs(1, 1500);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kR;
  opts.epsilon1 = 0.3;
  opts.fixed_k = 3;
  opts.candidate_cap = 150;
  Rng rng(1);
  BudgetAccountant acct(0.3);
  LearnedNetwork learned = LearnNetworkBinary(data, opts, rng, &acct);
  EXPECT_EQ(learned.k, 3);
  EXPECT_EQ(learned.net.size(), data.num_attrs());
  EXPECT_LE(learned.net.degree(), 3);
  // Chain property: pair i (0-based) for i <= k has parents {X_0..X_{i-1}}.
  for (int i = 0; i <= 3; ++i) {
    const APPair& p = learned.net.pair(i);
    EXPECT_EQ(static_cast<int>(p.parents.size()), std::min(i, 3));
    for (const GenAttr& g : p.parents) {
      bool found = false;
      for (int j = 0; j < i; ++j) found |= (learned.net.pair(j).attr == g.attr);
      EXPECT_TRUE(found);
    }
  }
  // Budget: d−1 charges of ε1/(d−1).
  EXPECT_EQ(acct.charges().size(), static_cast<size_t>(data.num_attrs() - 1));
  EXPECT_NEAR(acct.spent(), 0.3, 1e-9);
}

TEST(PrivateGreedyBinary, KZeroSkipsBudgetEntirely) {
  Dataset data = MakeNltcs(2, 800);
  PrivateGreedyOptions opts;
  opts.epsilon1 = 0.5;
  opts.fixed_k = 0;
  Rng rng(2);
  BudgetAccountant acct(0.5);
  LearnedNetwork learned = LearnNetworkBinary(data, opts, rng, &acct);
  EXPECT_EQ(learned.k, 0);
  EXPECT_EQ(learned.net.degree(), 0);
  EXPECT_DOUBLE_EQ(acct.spent(), 0.0);
}

TEST(PrivateGreedyBinary, ThetaDerivedKWhenUnset) {
  Dataset data = MakeNltcs(3, 21574);
  PrivateGreedyOptions opts;
  opts.epsilon1 = 0.48;
  opts.epsilon2_plan = 1.12;
  opts.theta = 4.0;
  opts.candidate_cap = 100;
  Rng rng(3);
  LearnedNetwork learned = LearnNetworkBinary(data, opts, rng, nullptr);
  EXPECT_EQ(learned.k, 7);  // matches ChooseDegreeK(21574, 16, 1.12, 4)
}

TEST(PrivateGreedyBinary, NoiselessWithFullEnumerationEqualsNonPrivate) {
  Dataset data = MakeNltcs(4, 600);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kI;
  opts.epsilon1 = 0.0;  // argmax selection
  opts.fixed_k = 1;
  opts.candidate_cap = 0;  // exact enumeration
  opts.first_attr = 2;
  Rng rng1(5);
  LearnedNetwork learned = LearnNetworkBinary(data, opts, rng1, nullptr);

  GreedyBayesOptions gopts;
  gopts.k = 1;
  gopts.first_attr = 2;
  Rng rng2(6);
  BayesNet reference = GreedyBayesNonPrivate(data, gopts, rng2);
  ASSERT_EQ(learned.net.size(), reference.size());
  for (int i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(learned.net.pair(i).attr, reference.pair(i).attr) << i;
    EXPECT_EQ(learned.net.pair(i).parents, reference.pair(i).parents) << i;
  }
}

TEST(PrivateGreedyBinary, RejectsNonBinarySchema) {
  Dataset data = MakeAdult(5, 200);
  PrivateGreedyOptions opts;
  opts.fixed_k = 1;
  Rng rng(7);
  EXPECT_THROW(LearnNetworkBinary(data, opts, rng, nullptr),
               std::invalid_argument);
}

// Golden networks: the structures LearnNetworkBinary returned with score F
// before the frontier DP and candidate scheduling were rewritten. Any change
// to F's value — in any bit that moves an exponential-mechanism pick — or to
// which thread scores which candidate shows up here. CTest also runs these
// with PRIVBAYES_THREADS=1, so they pin the result across thread counts.
struct GoldenPair {
  int attr;
  std::vector<int> parents;
};

void ExpectGoldenNetwork(uint64_t data_seed, int rows, int k,
                         size_t f_max_states, uint64_t rng_seed,
                         const std::vector<GoldenPair>& want) {
  Dataset data = MakeNltcs(data_seed, rows);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kF;
  opts.epsilon1 = 0.24;
  opts.fixed_k = k;
  opts.candidate_cap = 200;
  opts.f_max_states = f_max_states;
  Rng rng(rng_seed);
  LearnedNetwork learned = LearnNetworkBinary(data, opts, rng, nullptr);
  ASSERT_EQ(learned.net.size(), static_cast<int>(want.size()));
  for (int i = 0; i < learned.net.size(); ++i) {
    const APPair& got = learned.net.pair(i);
    std::vector<int> parents;
    for (const GenAttr& g : got.parents) {
      EXPECT_EQ(g.level, 0);
      parents.push_back(g.attr);
    }
    EXPECT_EQ(got.attr, want[i].attr) << "pair " << i;
    EXPECT_EQ(parents, want[i].parents) << "pair " << i;
  }
}

TEST(PrivateGreedyBinary, GoldenNetworkScoreF) {
  // fit_binary's shape: full-size NLTCS, k = 6, 200 candidates per round,
  // default f_max_states.
  ExpectGoldenNetwork(1, 21574, 6, 8192, 13,
                      {{6, {}},
                       {4, {6}},
                       {1, {6, 4}},
                       {3, {6, 4, 1}},
                       {11, {6, 4, 1, 3}},
                       {8, {6, 4, 1, 3, 11}},
                       {9, {6, 4, 1, 3, 11, 8}},
                       {5, {6, 4, 1, 3, 8, 9}},
                       {2, {6, 4, 1, 8, 9, 5}},
                       {7, {6, 4, 1, 3, 11, 5}},
                       {10, {3, 11, 9, 5, 2, 7}},
                       {12, {1, 3, 5, 7, 8, 10}},
                       {13, {3, 4, 5, 6, 7, 12}},
                       {14, {5, 6, 7, 10, 11, 13}},
                       {15, {3, 4, 5, 8, 11, 12}},
                       {0, {3, 4, 5, 7, 10, 11}}});
}

TEST(PrivateGreedyBinary, GoldenNetworkScoreFThinned) {
  // A cap of 64 states at n = 4,000 thins the frontier in most joints.
  ExpectGoldenNetwork(2, 4000, 4, 64, 17,
                      {{5, {}},
                       {9, {5}},
                       {3, {5, 9}},
                       {10, {5, 9, 3}},
                       {2, {5, 9, 3, 10}},
                       {7, {5, 9, 3, 2}},
                       {4, {5, 9, 3, 7}},
                       {8, {9, 10, 2, 7}},
                       {15, {5, 10, 2, 7}},
                       {6, {9, 10, 2, 15}},
                       {14, {4, 8, 15, 6}},
                       {12, {9, 3, 7, 8}},
                       {13, {4, 5, 6, 8}},
                       {11, {5, 6, 9, 10}},
                       {1, {3, 5, 8, 10}},
                       {0, {3, 7, 8, 1}}});
}

TEST(PrivateGreedyGeneral, StructureRespectsTauAndBudget) {
  Dataset data = MakeAdult(6, 3000);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kR;
  opts.epsilon1 = 0.24;
  opts.epsilon2_plan = 0.56;
  opts.theta = 4.0;
  opts.candidate_cap = 120;
  Rng rng(8);
  BudgetAccountant acct(0.24);
  LearnedNetwork learned = LearnNetworkGeneral(data, opts, rng, &acct);
  EXPECT_EQ(learned.net.size(), data.num_attrs());
  EXPECT_EQ(learned.k, -1);
  EXPECT_NEAR(acct.spent(), 0.24, 1e-9);
  // Every materialized joint respects the τ cap (θ-usefulness): parent
  // domain <= τ(X) (when the parent set is non-empty).
  const Schema& schema = data.schema();
  for (const APPair& p : learned.net.pairs()) {
    if (p.parents.empty()) continue;
    double tau = ParentDomainCap(data.num_rows(), data.num_attrs(),
                                 opts.epsilon2_plan, opts.theta,
                                 schema.Cardinality(p.attr));
    EXPECT_LE(GenDomainSize(schema, p.parents), tau + 1e-9)
        << "attribute " << p.attr;
  }
  learned.net.ValidateAgainst(schema);
}

// Golden networks for the general algorithm: Adult (hierarchical) at
// ε = 0.8 (ε1 = 0.24, planned ε2 = 0.56), θ = 4, 200 candidates per round.
// They pin the maximal-parent-set candidates (their order and the Rng draws
// of subsampling and of the fallback sampler) through the EM picks.
struct GoldenGenPair {
  int attr;
  std::vector<GenAttr> parents;
};

LearnedNetwork LearnGoldenGeneral(size_t mps_node_budget, uint64_t rng_seed) {
  Dataset data = MakeAdult(3, 20000);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kR;
  opts.epsilon1 = 0.24;
  opts.epsilon2_plan = 0.56;
  opts.theta = 4.0;
  opts.candidate_cap = 200;
  opts.mps_node_budget = mps_node_budget;
  Rng rng(rng_seed);
  return LearnNetworkGeneral(data, opts, rng, nullptr);
}

void ExpectGoldenGeneral(const LearnedNetwork& learned,
                         const std::vector<GoldenGenPair>& want) {
  ASSERT_EQ(learned.net.size(), static_cast<int>(want.size()));
  for (int i = 0; i < learned.net.size(); ++i) {
    EXPECT_EQ(learned.net.pair(i).attr, want[i].attr) << "pair " << i;
    EXPECT_EQ(learned.net.pair(i).parents, want[i].parents) << "pair " << i;
  }
}

TEST(PrivateGreedyGeneral, GoldenNetworkScoreR) {
  ExpectGoldenGeneral(LearnGoldenGeneral(200000, 31),
                      {{13, {}},
                       {12, {{13, 2}}},
                       {6, {{12, 3}, {13, 3}}},
                       {10, {{6, 0}}},
                       {3, {{6, 2}, {13, 3}}},
                       {5, {{3, 0}}},
                       {2, {{3, 1}}},
                       {0, {{2, 1}, {6, 3}, {10, 1}, {12, 3}}},
                       {1, {{0, 0}, {2, 1}, {3, 1}}},
                       {14, {{1, 0}}},
                       {4, {{10, 0}}},
                       {11, {{10, 0}}},
                       {7, {{1, 0}, {4, 3}}},
                       {9, {{0, 0}, {3, 1}, {7, 3}}},
                       {8, {{7, 3}, {12, 3}}}});
}

TEST(PrivateGreedyGeneral, GoldenNetworkScoreRFallback) {
  // A 300-node budget sends the larger enumerations to the fallback
  // sampler, which changes the network from the fifth pair on.
  ExpectGoldenGeneral(LearnGoldenGeneral(300, 31),
                      {{13, {}},
                       {12, {{13, 2}}},
                       {6, {{12, 3}, {13, 3}}},
                       {10, {{6, 0}}},
                       {11, {{10, 0}}},
                       {5, {{10, 0}, {11, 3}}},
                       {0, {{5, 0}, {11, 2}}},
                       {3, {{5, 0}}},
                       {2, {{0, 0}, {13, 3}}},
                       {1, {{0, 0}, {2, 0}}},
                       {9, {{13, 1}}},
                       {4, {{10, 0}}},
                       {7, {{4, 2}}},
                       {8, {{1, 0}, {9, 1}}},
                       {14, {{11, 3}}}});
}

// Two general learns running at once must return what they return one at a
// time: the enumeration state belongs to a learn, not to the process.
TEST(PrivateGreedyGeneral, ConcurrentLearnsMatchSerial) {
  const LearnedNetwork serial_a = LearnGoldenGeneral(200000, 41);
  const LearnedNetwork serial_b = LearnGoldenGeneral(300, 43);
  LearnedNetwork a, b;
  std::thread ta([&] { a = LearnGoldenGeneral(200000, 41); });
  std::thread tb([&] { b = LearnGoldenGeneral(300, 43); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.net.pairs(), serial_a.net.pairs());
  EXPECT_EQ(b.net.pairs(), serial_b.net.pairs());
}

TEST(PrivateGreedyGeneral, RejectsScoreF) {
  Dataset data = MakeAdult(9, 200);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kF;
  Rng rng(9);
  EXPECT_THROW(LearnNetworkGeneral(data, opts, rng, nullptr),
               std::invalid_argument);
}

TEST(PrivateGreedyGeneral, TinyTauYieldsIndependentNetwork) {
  Dataset data = MakeAdult(10, 500);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kR;
  opts.epsilon1 = 0.1;
  opts.epsilon2_plan = 1e-6;  // τ < 1 for every attribute
  opts.theta = 4.0;
  Rng rng(10);
  LearnedNetwork learned = LearnNetworkGeneral(data, opts, rng, nullptr);
  EXPECT_EQ(learned.net.degree(), 0);
}

// Network quality (Σ mutual information on the data) should, on average,
// improve with ε1 — the Fig. 4 trend.
TEST(PrivateGreedy, QualityImprovesWithEpsilon) {
  Dataset data = MakeNltcs(11, 4000);
  auto quality = [&](double eps1) {
    double total = 0;
    for (uint64_t s = 0; s < 5; ++s) {
      PrivateGreedyOptions opts;
      opts.score = ScoreKind::kF;
      opts.epsilon1 = eps1;
      opts.fixed_k = 2;
      opts.candidate_cap = 150;
      Rng rng(50 + s);
      LearnedNetwork learned = LearnNetworkBinary(data, opts, rng, nullptr);
      total += SumMutualInformation(data, learned.net);
    }
    return total / 5;
  };
  double lo = quality(0.01);
  double hi = quality(100.0);
  EXPECT_GT(hi, lo);
}

// Force-enables the store (so the PRIVBAYES_MARGINAL_CACHE=off CI run still
// exercises the cache semantics) and restores the env-derived config even
// when the test body fails or throws.
class PrivateGreedyStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MarginalStore::Instance().ConfigureForTesting(
        true, MarginalStore::kDefaultByteBudget);
  }
  void TearDown() override { MarginalStore::Instance().ResetFromEnv(); }
};

TEST_F(PrivateGreedyStoreTest, JointCacheHitsWithinAndAcrossLearns) {
  // Within one learn, every candidate that survives an iteration reappears
  // with the same parent set, so the MarginalStore must record hits. A
  // rerun with the same seed on the same snapshot must give the same
  // network (the store only changes WHEN joints are counted, never their
  // values) — and, since the store outlives the learn, the rerun resolves
  // every joint from cache: the cross-run reuse ε sweeps ride on.
  Dataset data = MakeNltcs(21, 3000);
  PrivateGreedyOptions opts;
  opts.score = ScoreKind::kR;
  opts.epsilon1 = 0.5;
  opts.fixed_k = 2;
  opts.first_attr = 0;
  JointCacheStats stats;
  opts.cache_stats = &stats;
  Rng rng(77);
  LearnedNetwork learned = LearnNetworkBinary(data, opts, rng, nullptr);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);

  PrivateGreedyOptions opts2 = opts;
  JointCacheStats stats2;
  opts2.cache_stats = &stats2;
  Rng rng2(77);
  LearnedNetwork learned2 = LearnNetworkBinary(data, opts2, rng2, nullptr);
  ASSERT_EQ(learned.net.size(), learned2.net.size());
  for (int i = 0; i < learned.net.size(); ++i) {
    EXPECT_EQ(learned.net.pair(i).attr, learned2.net.pair(i).attr) << i;
    EXPECT_EQ(learned.net.pair(i).parents, learned2.net.pair(i).parents) << i;
  }
  // The identical rerun asks for exactly the joints the first learn already
  // counted: all hits, no new counting passes.
  EXPECT_EQ(stats2.misses, 0u);
  EXPECT_EQ(stats2.hits, stats.hits + stats.misses);
}

// With identical seeds, F should on average produce networks at least as
// good as I under tight budgets (the paper's §4.3 motivation).
TEST(PrivateGreedy, ScoreFBeatsIAtTightBudget) {
  Dataset data = MakeNltcs(12, 8000);
  auto quality = [&](ScoreKind score) {
    double total = 0;
    for (uint64_t s = 0; s < 6; ++s) {
      PrivateGreedyOptions opts;
      opts.score = score;
      opts.epsilon1 = 0.02;
      opts.fixed_k = 2;
      opts.candidate_cap = 150;
      Rng rng(80 + s);
      LearnedNetwork learned = LearnNetworkBinary(data, opts, rng, nullptr);
      total += SumMutualInformation(data, learned.net);
    }
    return total / 6;
  };
  EXPECT_GT(quality(ScoreKind::kF), quality(ScoreKind::kI) * 0.95);
}

}  // namespace
}  // namespace privbayes
