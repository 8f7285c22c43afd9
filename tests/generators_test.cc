// Tests for data/generators: Table 5 geometry, determinism, correlation.

#include <gtest/gtest.h>

#include "data/generators.h"
#include "prob/information.h"

namespace privbayes {
namespace {

TEST(Generators, NltcsMatchesTable5) {
  Dataset d = MakeNltcs(1, 0 ? 0 : 21574);
  EXPECT_EQ(d.num_rows(), 21574);
  EXPECT_EQ(d.num_attrs(), 16);
  EXPECT_TRUE(d.schema().AllBinary());
  EXPECT_NEAR(d.schema().DomainBits(), 16.0, 1e-9);
}

TEST(Generators, AcsMatchesTable5) {
  Dataset d = MakeAcs(1, 4000);
  EXPECT_EQ(d.num_attrs(), 23);
  EXPECT_TRUE(d.schema().AllBinary());
  EXPECT_NEAR(d.schema().DomainBits(), 23.0, 1e-9);
}

TEST(Generators, AdultMatchesTable5Geometry) {
  Dataset d = MakeAdult(1, 2000);
  EXPECT_EQ(d.num_attrs(), 15);
  EXPECT_FALSE(d.schema().AllBinary());
  // Paper: domain ≈ 2^52; our substitute is within a few bits.
  EXPECT_GT(d.schema().DomainBits(), 45.0);
  EXPECT_LT(d.schema().DomainBits(), 56.0);
  // Taxonomies exist on the declared attributes.
  EXPECT_GT(d.schema().attr(d.schema().FindAttr("workclass"))
                .taxonomy.num_levels(),
            1);
  EXPECT_GT(
      d.schema().attr(d.schema().FindAttr("country")).taxonomy.num_levels(),
      2);
}

TEST(Generators, Br2000MatchesTable5Geometry) {
  Dataset d = MakeBr2000(1, 2000);
  EXPECT_EQ(d.num_attrs(), 14);
  EXPECT_GT(d.schema().DomainBits(), 28.0);
  EXPECT_LT(d.schema().DomainBits(), 40.0);
}

TEST(Generators, DefaultRowCountsMatchPaper) {
  EXPECT_EQ(MakeDatasetByName("NLTCS", 2).num_rows(), 21574);
  EXPECT_EQ(MakeDatasetByName("ACS", 2).num_rows(), 47461);
  EXPECT_EQ(MakeDatasetByName("Adult", 2).num_rows(), 45222);
  EXPECT_EQ(MakeDatasetByName("BR2000", 2).num_rows(), 38000);
  EXPECT_THROW(MakeDatasetByName("Nope", 2), std::invalid_argument);
}

TEST(Generators, DeterministicGivenSeed) {
  Dataset a = MakeNltcs(99, 500);
  Dataset b = MakeNltcs(99, 500);
  for (int r = 0; r < 500; ++r) {
    for (int c = 0; c < a.num_attrs(); ++c) {
      ASSERT_EQ(a.at(r, c), b.at(r, c));
    }
  }
}

TEST(Generators, DifferentSeedsDiffer) {
  Dataset a = MakeNltcs(1, 500);
  Dataset b = MakeNltcs(2, 500);
  int diff = 0;
  for (int r = 0; r < 500; ++r) {
    for (int c = 0; c < a.num_attrs(); ++c) {
      if (a.at(r, c) != b.at(r, c)) ++diff;
    }
  }
  EXPECT_GT(diff, 100);
}

// The populations must have genuine low-degree correlation structure — the
// property every experiment relies on (see data/generators.h). We check that
// some attribute pair carries substantial mutual information.
TEST(Generators, PopulationsAreCorrelated) {
  for (const char* name : {"NLTCS", "ACS", "Adult", "BR2000"}) {
    Dataset d = MakeDatasetByName(name, 5, 4000);
    double best = 0;
    for (int i = 0; i < d.num_attrs(); ++i) {
      for (int j = i + 1; j < d.num_attrs(); ++j) {
        std::vector<int> attrs = {i, j};
        ProbTable joint = d.JointCounts(attrs);
        joint.Normalize();
        best = std::max(best, MutualInformation(joint, GenVarId(i)));
      }
    }
    EXPECT_GT(best, 0.05) << name << " looks independent";
  }
}

TEST(Generators, ValuesInDomain) {
  Dataset d = MakeAdult(3, 1000);
  for (int r = 0; r < d.num_rows(); ++r) {
    for (int c = 0; c < d.num_attrs(); ++c) {
      ASSERT_LT(d.at(r, c), d.schema().Cardinality(c));
    }
  }
}

TEST(Generators, MarginalsAreSkewed) {
  // The generator mixes in a skewed base distribution; a binary attribute
  // should not be exactly 50/50 on average.
  Dataset d = MakeNltcs(7, 8000);
  double max_skew = 0;
  for (int c = 0; c < d.num_attrs(); ++c) {
    double ones = 0;
    for (int r = 0; r < d.num_rows(); ++r) ones += d.at(r, c);
    max_skew = std::max(max_skew, std::abs(ones / d.num_rows() - 0.5));
  }
  EXPECT_GT(max_skew, 0.1);
}

TEST(Generators, ToyDatasetRespectsSchema) {
  Schema s({Attribute::Binary("x"), Attribute::Categorical("y", 3),
            Attribute::Categorical("z", 4)});
  Dataset d = MakeToyDataset(s, 300, 11, 0.6);
  EXPECT_EQ(d.num_rows(), 300);
  EXPECT_EQ(d.num_attrs(), 3);
  for (int r = 0; r < d.num_rows(); ++r) {
    ASSERT_LT(d.at(r, 1), 3);
    ASSERT_LT(d.at(r, 2), 4);
  }
}

}  // namespace
}  // namespace privbayes
