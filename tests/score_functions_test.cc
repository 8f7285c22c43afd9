// Tests for core/score_functions: sensitivities (Lemma 4.1, Thm 4.5,
// Thm 5.3) including empirical neighbour-pair property tests, and the three
// score evaluations.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/score_functions.h"
#include "data/dataset.h"
#include "prob/information.h"

namespace privbayes {
namespace {

Schema PairSchema(int cx, int cpi) {
  return Schema(
      {Attribute::Categorical("p", cpi), Attribute::Categorical("x", cx)});
}

// Builds the joint-counts table (parent first, child LAST) from a dataset.
ProbTable PairCounts(const Dataset& d) {
  std::vector<int> attrs = {0, 1};
  return d.JointCounts(attrs);
}

TEST(Sensitivity, ClosedFormsMatchLemma) {
  int64_t n = 1000;
  double nd = n;
  double binary = std::log2(nd) / nd + (nd - 1) / nd * std::log2(nd / (nd - 1));
  EXPECT_NEAR(SensitivityI(n, true), binary, 1e-15);
  double general = 2 / nd * std::log2((nd + 1) / 2) +
                   (nd - 1) / nd * std::log2((nd + 1) / (nd - 1));
  EXPECT_NEAR(SensitivityI(n, false), general, 1e-15);
  EXPECT_NEAR(SensitivityF(n), 1e-3, 1e-15);
  EXPECT_NEAR(SensitivityR(n), 3e-3 + 2e-6, 1e-15);
}

TEST(Sensitivity, BinaryBoundIsTighter) {
  for (int64_t n : {10, 100, 10000}) {
    EXPECT_LT(SensitivityI(n, true), SensitivityI(n, false));
  }
}

TEST(Sensitivity, OrderingFLessRLessI) {
  // §5.3: S(F) < S(R)/3-ish < S(I); F and R are both O(1/n), I is
  // O(log n / n).
  int64_t n = 21574;
  EXPECT_LT(SensitivityF(n), SensitivityR(n));
  EXPECT_LT(SensitivityR(n), SensitivityI(n, true));
  EXPECT_LT(SensitivityF(n), SensitivityI(n, true) / std::log2(double(n)) + 1e-12);
}

TEST(Sensitivity, DispatchMatches) {
  int64_t n = 500;
  EXPECT_EQ(ScoreSensitivity(ScoreKind::kI, n, true), SensitivityI(n, true));
  EXPECT_EQ(ScoreSensitivity(ScoreKind::kF, n, true), SensitivityF(n));
  EXPECT_EQ(ScoreSensitivity(ScoreKind::kR, n, false), SensitivityR(n));
}

TEST(ScoreNames, AllNamed) {
  EXPECT_STREQ(ScoreName(ScoreKind::kI), "I");
  EXPECT_STREQ(ScoreName(ScoreKind::kF), "F");
  EXPECT_STREQ(ScoreName(ScoreKind::kR), "R");
}

TEST(ScoreI, MatchesMutualInformation) {
  std::vector<std::vector<Value>> cols(2);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    Value p = static_cast<Value>(rng.UniformInt(3));
    Value x = static_cast<Value>((p + rng.UniformInt(2)) % 2);
    cols[0].push_back(p);
    cols[1].push_back(x);
  }
  Dataset d = Dataset::FromColumns(PairSchema(2, 3), std::move(cols));
  ProbTable counts = PairCounts(d);
  ProbTable probs = counts;
  probs.Normalize();
  EXPECT_NEAR(ScoreI(counts, d.num_rows()),
              MutualInformation(probs, GenVarId(1)), 1e-12);
}

TEST(ScoreR, IndependentIsZeroCorrelatedIsPositive) {
  // Exactly independent counts.
  ProbTable indep({GenVarId(0), GenVarId(1)}, {2, 2});
  indep.values() = {40, 10, 40, 10};  // rows proportional
  EXPECT_NEAR(ScoreR(indep, 100), 0.0, 1e-12);
  // Perfectly correlated.
  ProbTable corr({GenVarId(0), GenVarId(1)}, {2, 2});
  corr.values() = {50, 0, 0, 50};
  EXPECT_NEAR(ScoreR(corr, 100), 0.5, 1e-12);
}

TEST(ScoreR, RangeIsZeroToHalf) {
  Rng rng(2);
  for (int t = 0; t < 40; ++t) {
    ProbTable counts({GenVarId(0), GenVarId(1)},
                     {2 + int(rng.UniformInt(3)), 2 + int(rng.UniformInt(3))});
    int64_t n = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] = static_cast<double>(rng.UniformInt(30));
      n += static_cast<int64_t>(counts[i]);
    }
    if (n == 0) continue;
    double r = ScoreR(counts, n);
    EXPECT_GE(r, -1e-12);
    EXPECT_LE(r, 0.5 + 1e-12);
  }
}

TEST(ScoreF, RequiresBinaryChild) {
  ProbTable counts({GenVarId(0), GenVarId(1)}, {2, 3});
  EXPECT_THROW(ScoreF(counts, 10), std::invalid_argument);
}

TEST(ScoreF, PerfectCorrelationIsZero) {
  ProbTable counts({GenVarId(0), GenVarId(1)}, {2, 2});
  counts.values() = {50, 0, 0, 50};
  EXPECT_NEAR(ScoreF(counts, 100), 0.0, 1e-12);
}

TEST(ComputeScore, DispatchConsistent) {
  ProbTable counts({GenVarId(0), GenVarId(1)}, {2, 2});
  counts.values() = {30, 10, 5, 55};
  int64_t n = 100;
  EXPECT_EQ(ComputeScore(ScoreKind::kI, counts, n), ScoreI(counts, n));
  EXPECT_EQ(ComputeScore(ScoreKind::kR, counts, n), ScoreR(counts, n));
  EXPECT_EQ(ComputeScore(ScoreKind::kF, counts, n, 0), ScoreF(counts, n, 0));
}

// Empirical sensitivity property test: for random neighbouring datasets
// (one row changed), |score(D1) − score(D2)| must not exceed the proven
// bound. This is the privacy-critical invariant.
class EmpiricalSensitivity : public ::testing::TestWithParam<int> {};

TEST_P(EmpiricalSensitivity, NeighbourDeltasWithinBounds) {
  Rng rng(300 + GetParam());
  int cx = 2;                                      // child binary (F needs it)
  int cp = 2 + static_cast<int>(rng.UniformInt(3));  // parent 2..4
  const int n = 40;
  std::vector<std::vector<Value>> cols(2);
  for (int i = 0; i < n; ++i) {
    cols[0].push_back(static_cast<Value>(rng.UniformInt(cp)));
    cols[1].push_back(static_cast<Value>(rng.UniformInt(cx)));
  }
  Dataset d1 = Dataset::FromColumns(PairSchema(cx, cp), cols);
  // Neighbour: change one row arbitrarily.
  int victim = static_cast<int>(rng.UniformInt(n));
  cols[0][victim] = static_cast<Value>(rng.UniformInt(cp));
  cols[1][victim] = static_cast<Value>(rng.UniformInt(cx));
  Dataset d2 = Dataset::FromColumns(PairSchema(cx, cp), std::move(cols));

  ProbTable c1 = PairCounts(d1);
  ProbTable c2 = PairCounts(d2);

  double di = std::abs(ScoreI(c1, n) - ScoreI(c2, n));
  EXPECT_LE(di, SensitivityI(n, true) + 1e-12);

  double dr = std::abs(ScoreR(c1, n) - ScoreR(c2, n));
  EXPECT_LE(dr, SensitivityR(n) + 1e-12);

  double df = std::abs(ScoreF(c1, n) - ScoreF(c2, n));
  EXPECT_LE(df, SensitivityF(n) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomNeighbours, EmpiricalSensitivity,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace privbayes
