// Tests for bn/greedy_bayes: candidate enumeration, Chow–Liu recovery.

#include <gtest/gtest.h>

#include <set>

#include "bn/greedy_bayes.h"
#include "data/generators.h"

namespace privbayes {
namespace {

TEST(Enumerate, CountsMatchBinomials) {
  // |Ω| = |remaining| · C(|chosen|, min(k, |chosen|)).
  std::vector<int> chosen = {0, 1, 2, 3};
  std::vector<int> remaining = {4, 5};
  auto cands = EnumerateCandidatesFixedK(chosen, remaining, 2);
  EXPECT_EQ(cands.size(), 2u * 6u);  // C(4,2)=6
  for (const APPair& p : cands) {
    EXPECT_EQ(p.parents.size(), 2u);
    EXPECT_TRUE(p.attr == 4 || p.attr == 5);
  }
}

TEST(Enumerate, ParentSetSizeIsMinKChosen) {
  std::vector<int> chosen = {7};
  std::vector<int> remaining = {1, 2};
  auto cands = EnumerateCandidatesFixedK(chosen, remaining, 3);
  EXPECT_EQ(cands.size(), 2u);
  for (const APPair& p : cands) {
    EXPECT_EQ(p.parents.size(), 1u);  // min(3, 1)
    EXPECT_EQ(p.parents[0].attr, 7);
  }
}

TEST(Enumerate, AllSubsetsDistinct) {
  std::vector<int> chosen = {0, 1, 2, 3, 4};
  std::vector<int> remaining = {5};
  auto cands = EnumerateCandidatesFixedK(chosen, remaining, 3);
  EXPECT_EQ(cands.size(), 10u);  // C(5,3)
  std::set<std::vector<int>> seen;
  for (const APPair& p : cands) {
    std::vector<int> attrs;
    for (const GenAttr& g : p.parents) attrs.push_back(g.attr);
    EXPECT_TRUE(seen.insert(attrs).second);
  }
}

TEST(Enumerate, KZeroGivesEmptyParents) {
  std::vector<int> chosen = {0, 1};
  std::vector<int> remaining = {2};
  auto cands = EnumerateCandidatesFixedK(chosen, remaining, 0);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_TRUE(cands[0].parents.empty());
}

TEST(CapCandidates, SubsamplesUniformlyAndNoopsWhenSmall) {
  std::vector<int> chosen = {0, 1, 2, 3};
  std::vector<int> remaining = {4, 5, 6};
  auto cands = EnumerateCandidatesFixedK(chosen, remaining, 2);
  size_t full = cands.size();
  Rng rng(1);
  CapCandidates(cands, full + 10, rng);
  EXPECT_EQ(cands.size(), full);
  CapCandidates(cands, 5, rng);
  EXPECT_EQ(cands.size(), 5u);
  CapCandidates(cands, 0, rng);  // 0 = no cap
  EXPECT_EQ(cands.size(), 5u);
}

TEST(CandidateSpace, SizesAndClamping) {
  // 3 remaining × C(4,2) = 18.
  EXPECT_EQ(CandidateSpaceSize(4, 3, 2, 1000), 18u);
  // min(k, chosen): C(2,2) = 1.
  EXPECT_EQ(CandidateSpaceSize(2, 5, 3, 1000), 5u);
  // Clamped: C(48,6) ≈ 12.27M.
  EXPECT_EQ(CandidateSpaceSize(48, 1, 6, 10000), 10000u);
  // Exact when within limit.
  EXPECT_EQ(CandidateSpaceSize(48, 1, 2, SIZE_MAX), 1128u);
}

TEST(EnumerateOrSample, ExactWhenSmall) {
  std::vector<int> chosen = {0, 1, 2, 3};
  std::vector<int> remaining = {4, 5};
  Rng rng(3);
  auto cands = EnumerateOrSampleCandidatesFixedK(chosen, remaining, 2,
                                                 /*cap=*/100, rng);
  EXPECT_EQ(cands.size(), 12u);  // full enumeration (2 × C(4,2))
}

TEST(EnumerateOrSample, SamplesDistinctValidCandidatesWhenHuge) {
  std::vector<int> chosen(40), remaining = {40, 41};
  for (int i = 0; i < 40; ++i) chosen[i] = i;
  Rng rng(4);
  auto cands =
      EnumerateOrSampleCandidatesFixedK(chosen, remaining, 5, 200, rng);
  EXPECT_EQ(cands.size(), 200u);
  std::set<std::pair<int, std::vector<int>>> seen;
  for (const APPair& p : cands) {
    EXPECT_TRUE(p.attr == 40 || p.attr == 41);
    EXPECT_EQ(p.parents.size(), 5u);
    std::vector<int> attrs;
    for (const GenAttr& g : p.parents) {
      EXPECT_GE(g.attr, 0);
      EXPECT_LT(g.attr, 40);
      attrs.push_back(g.attr);
    }
    std::sort(attrs.begin(), attrs.end());
    EXPECT_TRUE(std::adjacent_find(attrs.begin(), attrs.end()) == attrs.end())
        << "duplicate parent";
    EXPECT_TRUE(seen.emplace(p.attr, attrs).second) << "duplicate candidate";
  }
}

TEST(EnumerateOrSample, NoCapMeansExactEvenWhenLarge) {
  std::vector<int> chosen = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> remaining = {8};
  Rng rng(5);
  auto cands =
      EnumerateOrSampleCandidatesFixedK(chosen, remaining, 4, 0, rng);
  EXPECT_EQ(cands.size(), 70u);  // C(8,4)
}

// A chain dataset x0 -> x1 -> x2 -> x3 with strong correlation: Chow–Liu
// (k = 1) must recover chain adjacency (each attribute's parent is a chain
// neighbour).
TEST(GreedyBayes, ChowLiuRecoversChainStructure) {
  const int d = 5, n = 6000;
  Schema s({Attribute::Binary("x0"), Attribute::Binary("x1"),
            Attribute::Binary("x2"), Attribute::Binary("x3"),
            Attribute::Binary("x4")});
  std::vector<std::vector<Value>> cols(d, std::vector<Value>(n));
  Rng rng(7);
  for (int r = 0; r < n; ++r) {
    Value prev = static_cast<Value>(rng.UniformInt(2));
    cols[0][r] = prev;
    for (int c = 1; c < d; ++c) {
      // 90% copy the previous attribute.
      Value v = rng.Uniform() < 0.9 ? prev
                                    : static_cast<Value>(rng.UniformInt(2));
      cols[c][r] = v;
      prev = v;
    }
  }
  Dataset data = Dataset::FromColumns(s, std::move(cols));
  GreedyBayesOptions opts;
  opts.k = 1;
  opts.first_attr = 0;
  Rng grng(8);
  BayesNet net = GreedyBayesNonPrivate(data, opts, grng);
  ASSERT_EQ(net.size(), d);
  for (int i = 1; i < net.size(); ++i) {
    const APPair& p = net.pair(i);
    ASSERT_EQ(p.parents.size(), 1u);
    EXPECT_EQ(std::abs(p.parents[0].attr - p.attr), 1)
        << "attribute " << p.attr << " should attach to a chain neighbour";
  }
}

TEST(GreedyBayes, DegreeRespectsK) {
  Dataset data = MakeNltcs(3, 1200);
  for (int k : {1, 2, 3}) {
    GreedyBayesOptions opts;
    opts.k = k;
    opts.candidate_cap = 200;
    Rng rng(9);
    BayesNet net = GreedyBayesNonPrivate(data, opts, rng);
    EXPECT_EQ(net.size(), data.num_attrs());
    EXPECT_LE(net.degree(), k);
    // First k+1 pairs form the prefix chain.
    for (int i = 0; i <= k && i < net.size(); ++i) {
      EXPECT_EQ(static_cast<int>(net.pair(i).parents.size()),
                std::min(i, k));
    }
  }
}

TEST(GreedyBayes, FixedFirstAttrIsRoot) {
  Dataset data = MakeNltcs(4, 800);
  GreedyBayesOptions opts;
  opts.k = 1;
  opts.first_attr = 5;
  opts.candidate_cap = 100;
  Rng rng(10);
  BayesNet net = GreedyBayesNonPrivate(data, opts, rng);
  EXPECT_EQ(net.pair(0).attr, 5);
  EXPECT_TRUE(net.pair(0).parents.empty());
}

}  // namespace
}  // namespace privbayes
