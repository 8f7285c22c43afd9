// Tests for the top-level PrivBayes API: option validation, algorithm
// selection, β split, the k = 0 degenerate case, model metadata.

#include <gtest/gtest.h>

#include "core/privbayes.h"
#include "data/generators.h"

namespace privbayes {
namespace {

TEST(PrivBayesOptionsCheck, Validation) {
  PrivBayesOptions opts;
  opts.beta = 0.0;
  EXPECT_THROW(PrivBayes{opts}, std::invalid_argument);
  opts.beta = 1.0;
  EXPECT_THROW(PrivBayes{opts}, std::invalid_argument);
  opts.beta = 0.3;
  opts.theta = 0;
  EXPECT_THROW(PrivBayes{opts}, std::invalid_argument);
  opts.theta = 4;
  opts.epsilon = 0;
  EXPECT_THROW(PrivBayes{opts}, std::invalid_argument);
  // ε = 0 allowed only when both phases are noiseless ablations.
  opts.best_network = true;
  opts.best_marginal = true;
  EXPECT_NO_THROW(PrivBayes{opts});
}

TEST(PrivBayesFit, SelectsBinaryAlgorithmOnBinaryData) {
  Dataset data = MakeNltcs(1, 1000);
  PrivBayesOptions opts;
  opts.epsilon = 1.0;
  opts.candidate_cap = 80;
  PrivBayes pb(opts);
  Rng rng(1);
  PrivBayesModel model = pb.Fit(data, rng);
  EXPECT_TRUE(model.used_binary_algorithm);
  EXPECT_GE(model.degree_k, 0);
  EXPECT_NEAR(model.epsilon1 + model.epsilon2, 1.0, 1e-9);
  EXPECT_EQ(model.network.size(), data.num_attrs());
}

TEST(PrivBayesFit, SelectsGeneralAlgorithmOnMixedData) {
  Dataset data = MakeAdult(2, 1000);
  PrivBayesOptions opts;
  opts.epsilon = 0.8;
  opts.candidate_cap = 80;
  PrivBayes pb(opts);
  Rng rng(2);
  PrivBayesModel model = pb.Fit(data, rng);
  EXPECT_FALSE(model.used_binary_algorithm);
  EXPECT_EQ(model.degree_k, -1);
}

// ε = 0 with both noiseless ablations plans ε2 = 0, so θ-usefulness puts no
// cap on general parent domains (τ = +∞) and every parent set would be the
// whole chosen set at full resolution. Fit must refuse that before learning,
// naming the cause, rather than fail inside counting. The binary algorithm
// (k = d − 1) still fits at ε = 0.
TEST(PrivBayesFit, ZeroEpsilonNoiselessGeneralRejectedUpFront) {
  Dataset data = MakeDatasetByName("Adult", 20140614, 2000);
  for (size_t cap : {size_t{0}, size_t{200}}) {
    PrivBayesOptions opts;
    opts.epsilon = 0;
    opts.best_network = true;
    opts.best_marginal = true;
    opts.candidate_cap = cap;
    PrivBayes pb(opts);
    Rng rng(1);
    try {
      pb.Fit(data, rng);
      ADD_FAILURE() << "Fit accepted epsilon = 0 on a general domain";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("general algorithm"),
                std::string::npos)
          << e.what();
    }
  }
  PrivBayesOptions binary;
  binary.epsilon = 0;
  binary.best_network = true;
  binary.best_marginal = true;
  binary.fixed_k = 1;
  binary.candidate_cap = 100;
  Rng rng(2);
  EXPECT_TRUE(PrivBayes(binary).Fit(MakeNltcs(3, 500), rng)
                  .used_binary_algorithm);
}

TEST(PrivBayesFit, BinaryEncodingForcesBinaryAlgorithm) {
  Dataset data = MakeAdult(3, 800);
  PrivBayesOptions opts;
  opts.epsilon = 0.8;
  opts.encoding = EncodingKind::kBinary;
  opts.candidate_cap = 80;
  PrivBayes pb(opts);
  Rng rng(3);
  PrivBayesModel model = pb.Fit(data, rng);
  EXPECT_TRUE(model.used_binary_algorithm);
  EXPECT_NE(model.encoder, nullptr);
  EXPECT_GT(model.encoded_schema.num_attrs(), data.num_attrs());
  // Synthesis decodes back to the original schema.
  Dataset synth = pb.Synthesize(model, 100, rng);
  EXPECT_EQ(synth.num_attrs(), data.num_attrs());
}

TEST(PrivBayesFit, BetaSplitIsRespected) {
  Dataset data = MakeNltcs(4, 21574);
  PrivBayesOptions opts;
  opts.epsilon = 1.6;
  opts.beta = 0.25;
  opts.candidate_cap = 60;
  PrivBayes pb(opts);
  Rng rng(4);
  PrivBayesModel model = pb.Fit(data, rng);
  EXPECT_NEAR(model.epsilon1, 0.4, 1e-12);
  EXPECT_NEAR(model.epsilon2, 1.2, 1e-12);
}

TEST(PrivBayesFit, TinyEpsilonHitsKZeroAndReassignsBudget) {
  // Footnote 6: with k = 0 the β split is abandoned and ε2 = ε.
  Dataset data = MakeNltcs(5, 2000);
  PrivBayesOptions opts;
  opts.epsilon = 0.001;
  opts.candidate_cap = 40;
  PrivBayes pb(opts);
  Rng rng(5);
  PrivBayesModel model = pb.Fit(data, rng);
  EXPECT_EQ(model.degree_k, 0);
  EXPECT_DOUBLE_EQ(model.epsilon1, 0.0);
  EXPECT_DOUBLE_EQ(model.epsilon2, 0.001);
  EXPECT_EQ(model.network.degree(), 0);
}

TEST(PrivBayesFit, ScoreOverrideIsUsed) {
  Dataset data = MakeNltcs(6, 800);
  PrivBayesOptions opts;
  opts.epsilon = 1.0;
  opts.score = ScoreKind::kI;
  opts.candidate_cap = 60;
  PrivBayes pb(opts);
  Rng rng(6);
  EXPECT_NO_THROW(pb.Fit(data, rng));
  // F on general domains must be rejected.
  Dataset mixed = MakeAdult(7, 400);
  PrivBayesOptions bad;
  bad.epsilon = 1.0;
  bad.score = ScoreKind::kF;
  bad.candidate_cap = 60;
  PrivBayes pb2(bad);
  Rng rng2(7);
  EXPECT_THROW(pb2.Fit(mixed, rng2), std::invalid_argument);
}

TEST(PrivBayesFit, FixedKOverride) {
  Dataset data = MakeNltcs(8, 1500);
  PrivBayesOptions opts;
  opts.epsilon = 1.0;
  opts.fixed_k = 2;
  opts.candidate_cap = 60;
  PrivBayes pb(opts);
  Rng rng(8);
  PrivBayesModel model = pb.Fit(data, rng);
  EXPECT_EQ(model.degree_k, 2);
  EXPECT_LE(model.network.degree(), 2);
}

TEST(PrivBayesSynthesize, RowCountAndDeterminism) {
  Dataset data = MakeNltcs(9, 600);
  PrivBayesOptions opts;
  opts.epsilon = 1.0;
  opts.candidate_cap = 50;
  PrivBayes pb(opts);
  Rng rng(9);
  PrivBayesModel model = pb.Fit(data, rng);
  Rng s1(11), s2(11);
  Dataset a = pb.Synthesize(model, 250, s1);
  Dataset b = pb.Synthesize(model, 250, s2);
  EXPECT_EQ(a.num_rows(), 250);
  for (int r = 0; r < 250; ++r) {
    for (int c = 0; c < a.num_attrs(); ++c) {
      ASSERT_EQ(a.at(r, c), b.at(r, c));
    }
  }
}

TEST(PrivBayesRun, EndToEndDeterministicGivenSeed) {
  Dataset data = MakeNltcs(20, 500);
  PrivBayesOptions opts;
  opts.epsilon = 0.6;
  opts.candidate_cap = 50;
  PrivBayes pb(opts);
  Rng r1(3), r2(3);
  Dataset a = pb.Run(data, r1);
  Dataset b = pb.Run(data, r2);
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_attrs(); ++c) {
      ASSERT_EQ(a.at(r, c), b.at(r, c));
    }
  }
}

TEST(PrivBayesRun, DifferentSeedsProduceDifferentReleases) {
  Dataset data = MakeNltcs(21, 500);
  PrivBayesOptions opts;
  opts.epsilon = 0.6;
  opts.candidate_cap = 50;
  PrivBayes pb(opts);
  Rng r1(4), r2(5);
  Dataset a = pb.Run(data, r1);
  Dataset b = pb.Run(data, r2);
  int diff = 0;
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_attrs(); ++c) {
      diff += a.at(r, c) != b.at(r, c);
    }
  }
  EXPECT_GT(diff, 0) << "the mechanism must be randomized";
}

// ε sweep as a parameterized suite: every grid point must produce valid
// synthetic data with a correctly partitioned budget.
class EpsilonGridFit : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonGridFit, BudgetPartitionAndValidOutput) {
  Dataset data = MakeNltcs(22, 1200);
  PrivBayesOptions opts;
  opts.epsilon = GetParam();
  opts.candidate_cap = 60;
  PrivBayes pb(opts);
  Rng rng(6);
  PrivBayesModel model = pb.Fit(data, rng);
  if (model.degree_k == 0) {
    EXPECT_DOUBLE_EQ(model.epsilon1, 0.0);
    EXPECT_DOUBLE_EQ(model.epsilon2, GetParam());
  } else {
    EXPECT_NEAR(model.epsilon1 + model.epsilon2, GetParam(), 1e-12);
    EXPECT_NEAR(model.epsilon1 / GetParam(), 0.3, 1e-12);
  }
  Dataset synth = pb.Synthesize(model, 100, rng);
  EXPECT_EQ(synth.num_rows(), 100);
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, EpsilonGridFit,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8, 1.6));

TEST(PrivBayesFit, RejectsDegenerateInputs) {
  PrivBayesOptions opts;
  opts.epsilon = 1.0;
  PrivBayes pb(opts);
  Rng rng(10);
  Schema s({Attribute::Binary("a")});
  Dataset one_row = Dataset::FromColumns(s, {{0}});
  EXPECT_THROW(pb.Fit(one_row, rng), std::invalid_argument);
}

TEST(PrivBayesFit, ModelMetadataComplete) {
  Dataset data = MakeBr2000(11, 700);
  PrivBayesOptions opts;
  opts.epsilon = 0.4;
  opts.candidate_cap = 60;
  PrivBayes pb(opts);
  Rng rng(12);
  PrivBayesModel model = pb.Fit(data, rng);
  EXPECT_EQ(model.input_rows, 700);
  EXPECT_EQ(model.original_schema.num_attrs(), 14);
  EXPECT_EQ(model.encoding, EncodingKind::kHierarchical);
  EXPECT_EQ(model.conditionals.conditionals.size(),
            static_cast<size_t>(model.network.size()));
}

}  // namespace
}  // namespace privbayes
