// Tests for query/marginal_workload: enumeration counts, subsampling,
// error metric correctness.

#include <gtest/gtest.h>

#include <set>

#include "data/generators.h"
#include "query/marginal_workload.h"

namespace privbayes {
namespace {

Schema FiveBinary() {
  std::vector<Attribute> attrs;
  for (int i = 0; i < 5; ++i) {
    attrs.push_back(Attribute::Binary("a" + std::to_string(i)));
  }
  return Schema(std::move(attrs));
}

TEST(Workload, EnumerationCountsMatchBinomials) {
  Schema s = FiveBinary();
  EXPECT_EQ(MarginalWorkload::AllAlphaWay(s, 1).size(), 5u);
  EXPECT_EQ(MarginalWorkload::AllAlphaWay(s, 2).size(), 10u);
  EXPECT_EQ(MarginalWorkload::AllAlphaWay(s, 3).size(), 10u);
  EXPECT_EQ(MarginalWorkload::AllAlphaWay(s, 5).size(), 1u);
}

TEST(Workload, SetsAreDistinctSortedAlphaSized) {
  Schema s = FiveBinary();
  MarginalWorkload w = MarginalWorkload::AllAlphaWay(s, 3);
  std::set<std::vector<int>> seen;
  for (const auto& set : w.attr_sets) {
    EXPECT_EQ(set.size(), 3u);
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    EXPECT_TRUE(seen.insert(set).second);
  }
}

TEST(Workload, InvalidAlphaThrows) {
  Schema s = FiveBinary();
  EXPECT_THROW(MarginalWorkload::AllAlphaWay(s, 0), std::invalid_argument);
  EXPECT_THROW(MarginalWorkload::AllAlphaWay(s, 6), std::invalid_argument);
}

TEST(Workload, SubsampleKeepsSubset) {
  Schema s = FiveBinary();
  MarginalWorkload full = MarginalWorkload::AllAlphaWay(s, 2);
  std::set<std::vector<int>> universe(full.attr_sets.begin(),
                                      full.attr_sets.end());
  MarginalWorkload w = full;
  Rng rng(1);
  w.SubsampleTo(4, rng);
  EXPECT_EQ(w.size(), 4u);
  for (const auto& set : w.attr_sets) EXPECT_TRUE(universe.count(set));
  // No-op when already small.
  w.SubsampleTo(100, rng);
  EXPECT_EQ(w.size(), 4u);
}

TEST(Workload, PaperWorkloadSizes) {
  // |Q4| on ACS = C(23,4) = 8855; |Q3| on NLTCS = C(16,3) = 560.
  Dataset acs = MakeAcs(1, 10);
  EXPECT_EQ(MarginalWorkload::AllAlphaWay(acs.schema(), 4).size(), 8855u);
  Dataset nltcs = MakeNltcs(1, 10);
  EXPECT_EQ(MarginalWorkload::AllAlphaWay(nltcs.schema(), 3).size(), 560u);
}

TEST(Metric, IdenticalDataScoresZero) {
  Dataset d = MakeNltcs(2, 800);
  MarginalWorkload w = MarginalWorkload::AllAlphaWay(d.schema(), 2);
  Rng rng(2);
  w.SubsampleTo(20, rng);
  EXPECT_NEAR(AverageMarginalTvd(d, w, d), 0.0, 1e-12);
}

TEST(Metric, KnownDistance) {
  // Two single-attribute datasets with known marginals.
  Schema s({Attribute::Binary("x")});
  // a: 1,1,0,0 -> P(1) = 0.5; b: 1,1,1,1 -> P(1) = 1. TVD = 0.5.
  Dataset a = Dataset::FromColumns(s, {{1, 1, 0, 0}});
  Dataset b = Dataset::FromColumns(s, {{1, 1, 1, 1}});
  MarginalWorkload w = MarginalWorkload::AllAlphaWay(s, 1);
  EXPECT_NEAR(AverageMarginalTvd(a, w, b), 0.5, 1e-12);
}

TEST(Metric, ProviderAndDatasetPathsAgree) {
  Dataset real = MakeNltcs(3, 500);
  Dataset synth = MakeNltcs(4, 500);
  MarginalWorkload w = MarginalWorkload::AllAlphaWay(real.schema(), 2);
  Rng rng(3);
  w.SubsampleTo(15, rng);
  double via_dataset = AverageMarginalTvd(real, w, synth);
  double via_provider = AverageMarginalTvd(
      real, w, [&synth](const std::vector<int>& attrs) {
        return EmpiricalMarginal(synth, attrs);
      });
  EXPECT_DOUBLE_EQ(via_dataset, via_provider);
}

TEST(Metric, BoundedByOne) {
  Dataset real = MakeAdult(5, 400);
  Dataset synth = MakeAdult(6, 400);
  MarginalWorkload w = MarginalWorkload::AllAlphaWay(real.schema(), 2);
  Rng rng(4);
  w.SubsampleTo(25, rng);
  double err = AverageMarginalTvd(real, w, synth);
  EXPECT_GE(err, 0.0);
  EXPECT_LE(err, 1.0);
}

TEST(Metric, EmptyWorkloadThrows) {
  Dataset d = MakeNltcs(7, 100);
  MarginalWorkload w;
  EXPECT_THROW(AverageMarginalTvd(d, w, d), std::invalid_argument);
}

}  // namespace
}  // namespace privbayes
