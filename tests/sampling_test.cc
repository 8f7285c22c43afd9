// Tests for bn/sampling: ancestral sampling correctness (sampled marginals
// converge to the model's), generalized-parent lookups, log-likelihood.

#include <gtest/gtest.h>

#include <cmath>

#include "bn/sampling.h"
#include "data/generators.h"

namespace privbayes {
namespace {

// A two-attribute model with known probabilities.
struct TinyModel {
  Schema schema{std::vector<Attribute>{Attribute::Binary("x"),
                                       Attribute::Binary("y")}};
  BayesNet net;
  ConditionalSet cs;

  TinyModel() {
    net.Add(APPair{0, {}});
    net.Add(APPair{1, {{0, 0}}});
    ProbTable px({GenVarId(0)}, {2});
    px[0] = 0.3;
    px[1] = 0.7;
    ProbTable py({GenVarId(0), GenVarId(1)}, {2, 2});
    // P(y=1 | x=0) = 0.9, P(y=1 | x=1) = 0.2.
    py.values() = {0.1, 0.9, 0.8, 0.2};
    cs.conditionals = {px, py};
  }
};

TEST(Sampling, MatchesModelProbabilities) {
  TinyModel m;
  Rng rng(1);
  Dataset d = SampleFromNetwork(m.schema, m.net, m.cs, 60000, rng);
  double x1 = 0, y1_given_x0 = 0, x0 = 0;
  for (int r = 0; r < d.num_rows(); ++r) {
    if (d.at(r, 0) == 1) {
      x1 += 1;
    } else {
      x0 += 1;
      if (d.at(r, 1) == 1) y1_given_x0 += 1;
    }
  }
  EXPECT_NEAR(x1 / d.num_rows(), 0.7, 0.01);
  EXPECT_NEAR(y1_given_x0 / x0, 0.9, 0.01);
}

TEST(Sampling, ValidatesTableShapes) {
  TinyModel m;
  Rng rng(2);
  // Wrong arity: drop a parent.
  ConditionalSet bad = m.cs;
  bad.conditionals[1] = m.cs.conditionals[0];
  EXPECT_THROW(SampleFromNetwork(m.schema, m.net, bad, 10, rng),
               std::invalid_argument);
  // Wrong count.
  ConditionalSet fewer;
  fewer.conditionals = {m.cs.conditionals[0]};
  EXPECT_THROW(SampleFromNetwork(m.schema, m.net, fewer, 10, rng),
               std::invalid_argument);
}

TEST(Sampling, GeneralizedParentLookup) {
  // Parent "age" with 4 bins and a binary-tree taxonomy; child copies the
  // parent's level-1 group deterministically.
  Schema schema({Attribute::Continuous("age", 0, 40, 4),
                 Attribute::Binary("flag")});
  BayesNet net;
  net.Add(APPair{0, {}});
  net.Add(APPair{1, {{0, 1}}});  // parent generalized to level 1 (card 2)
  ProbTable page({GenVarId(0)}, {4});
  page.Fill(0.25);
  ProbTable pflag({GenVarId(GenAttr{0, 1}), GenVarId(1)}, {2, 2});
  pflag.values() = {1.0, 0.0, 0.0, 1.0};  // flag = group(age)
  ConditionalSet cs;
  cs.conditionals = {page, pflag};
  Rng rng(3);
  Dataset d = SampleFromNetwork(schema, net, cs, 4000, rng);
  for (int r = 0; r < d.num_rows(); ++r) {
    Value group = schema.attr(0).taxonomy.Generalize(d.at(r, 0), 1);
    ASSERT_EQ(d.at(r, 1), group) << "row " << r;
  }
}

TEST(Sampling, DeterministicGivenSeed) {
  TinyModel m;
  Rng a(7), b(7);
  Dataset d1 = SampleFromNetwork(m.schema, m.net, m.cs, 100, a);
  Dataset d2 = SampleFromNetwork(m.schema, m.net, m.cs, 100, b);
  for (int r = 0; r < 100; ++r) {
    ASSERT_EQ(d1.at(r, 0), d2.at(r, 0));
    ASSERT_EQ(d1.at(r, 1), d2.at(r, 1));
  }
}

TEST(Sampling, ZeroRows) {
  TinyModel m;
  Rng rng(4);
  Dataset d = SampleFromNetwork(m.schema, m.net, m.cs, 0, rng);
  EXPECT_EQ(d.num_rows(), 0);
}

TEST(LogLikelihood, PrefersTheGeneratingModel) {
  TinyModel m;
  Rng rng(5);
  Dataset d = SampleFromNetwork(m.schema, m.net, m.cs, 5000, rng);
  double ll_true = LogLikelihood(d, m.net, m.cs);
  // A mismatched model: uniform everywhere.
  ConditionalSet uniform = m.cs;
  uniform.conditionals[0].Fill(0.5);
  uniform.conditionals[1].Fill(0.5);
  double ll_uniform = LogLikelihood(d, m.net, uniform);
  EXPECT_GT(ll_true, ll_uniform);
}

TEST(LogLikelihood, MatchesHandComputation) {
  TinyModel m;
  Dataset d = Dataset::FromColumns(m.schema, {{1}, {0}});
  double expect = std::log2(0.7) + std::log2(0.8);
  EXPECT_NEAR(LogLikelihood(d, m.net, m.cs), expect, 1e-12);
}

}  // namespace
}  // namespace privbayes
