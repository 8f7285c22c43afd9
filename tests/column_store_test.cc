// Engine-equivalence tests for the columnar counting engine: the packed
// popcount kernel and the packed radix kernel must return counts
// BIT-IDENTICAL to the seed's naive pass (both accumulate integers, so exact
// double comparison is the right check).

#include <span>
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/column_store.h"
#include "data/dataset.h"
#include "data/generators.h"

namespace privbayes {
namespace {

// Fills a dataset over `schema` with seeded uniform values.
Dataset RandomDataset(const Schema& schema, int num_rows, uint64_t seed) {
  std::vector<std::vector<Value>> cols(schema.num_attrs(),
                                       std::vector<Value>(num_rows));
  Rng rng(seed);
  for (int c = 0; c < schema.num_attrs(); ++c) {
    for (int r = 0; r < num_rows; ++r) {
      cols[c][r] = static_cast<Value>(rng.UniformInt(schema.Cardinality(c)));
    }
  }
  return Dataset::FromColumns(schema, std::move(cols));
}

void ExpectIdenticalCounts(const Dataset& d, std::span<const GenAttr> gattrs) {
  ProbTable engine = d.JointCountsGeneralized(gattrs);
  ProbTable naive = d.JointCountsGeneralizedNaive(gattrs);
  ASSERT_EQ(engine.vars(), naive.vars());
  ASSERT_EQ(engine.cards(), naive.cards());
  for (size_t i = 0; i < engine.size(); ++i) {
    ASSERT_EQ(engine[i], naive[i]) << "cell " << i;
  }
  EXPECT_DOUBLE_EQ(engine.Sum(), static_cast<double>(d.num_rows()));
}

TEST(ColumnStore, PackedCountsMatchNaiveOnRandomBinaryData) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < 10; ++i) {
    attrs.push_back(Attribute::Binary("b" + std::to_string(i)));
  }
  // Row counts straddle the 64-row word boundary and the empty tail word.
  for (int n : {1, 63, 64, 65, 1000, 4097}) {
    Dataset d = RandomDataset(Schema(attrs), n, 17 + n);
    Rng pick(n);
    for (int arity = 1; arity <= 9; ++arity) {
      std::vector<int> order(10);
      for (int i = 0; i < 10; ++i) order[i] = i;
      pick.Shuffle(order);
      std::vector<GenAttr> gattrs;
      for (int j = 0; j < arity; ++j) gattrs.push_back(GenAttr{order[j], 0});
      ExpectIdenticalCounts(d, gattrs);
    }
  }
}

TEST(ColumnStore, RadixMatchesNaiveAtEveryWidthAlignmentAndThreadCount) {
  // One attribute per packed width (1/2/4/8/16 bits), cardinalities below
  // 2^bits included, plus nine binaries for a k > kMaxPackedAttrs set.
  std::vector<Attribute> attrs = {
      Attribute::Categorical("c3", 3),       // 2 bits
      Attribute::Categorical("c13", 13),     // 4 bits
      Attribute::Categorical("c200", 200),   // 8 bits
      Attribute::Categorical("c300", 300),   // 16 bits
      Attribute::Continuous("x", 0, 16, 16)  // 4 bits; levels 4/2/1 bits
  };
  for (int i = 0; i < 9; ++i) {
    attrs.push_back(Attribute::Binary("b" + std::to_string(i)));  // 1 bit
  }
  const Schema schema(attrs);
  std::vector<GenAttr> all_binary;
  for (int i = 5; i < 14; ++i) all_binary.push_back(GenAttr{i, 0});
  const std::vector<std::vector<GenAttr>> sets = {
      {{5, 0}, {0, 0}},                    // 1-bit leading
      {{0, 0}, {5, 0}},                    // 1-bit folded
      {{1, 0}, {2, 0}},                    // 4 and 8 bits
      {{3, 0}},                            // 16 bits alone
      {{3, 0}, {5, 0}, {0, 0}},            // 16-bit leading
      {{5, 0}, {0, 0}, {1, 0}, {2, 0}},    // 1/2/4/8 bits
      {{4, 1}, {4, 2}, {4, 3}, {0, 0}},    // generalized levels
      all_binary,                          // radix past the popcount kernels
  };
  // 2^15 + 37 rows engage the row-sharded pass when the pool has more than
  // one thread (ctest also runs this under PRIVBAYES_THREADS=4).
  for (int n : {1, 63, 64, 65, 4097, (1 << 15) + 37}) {
    Dataset d = RandomDataset(schema, n, 91 + n);
    for (const std::vector<GenAttr>& gattrs : sets) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " k=" << gattrs.size() << " threads="
                   << ThreadPool::Global().num_threads());
      ExpectIdenticalCounts(d, gattrs);
    }
  }
}

TEST(ColumnStore, CachedGeneralizedCountsMatchOnTheFlyGeneralize) {
  // Continuous attributes carry multi-level binary-tree taxonomies; the
  // categorical one a custom chain (4 leaves -> 2 groups).
  Schema schema({Attribute::Continuous("age", 0, 64, 16),
                 Attribute::CategoricalWithTaxonomy(
                     "job", TaxonomyTree::FromChain(4, {{0, 0, 1, 1}})),
                 Attribute::Continuous("hours", 0, 16, 8),
                 Attribute::Binary("flag")});
  Dataset d = MakeToyDataset(schema, 3000, 99);
  for (std::vector<GenAttr> gattrs :
       std::vector<std::vector<GenAttr>>{{{0, 2}},
                                         {{0, 3}, {3, 0}},
                                         {{0, 1}, {1, 1}},
                                         {{1, 0}, {2, 2}},
                                         {{0, 2}, {1, 1}, {2, 1}, {3, 0}},
                                         {{2, 0}, {0, 0}}}) {
    ExpectIdenticalCounts(d, gattrs);
  }
}

TEST(ColumnStore, MixedBinaryAndGeneralizedFallsBackToRadix) {
  Schema schema({Attribute::Binary("b0"), Attribute::Continuous("c", 0, 8, 8),
                 Attribute::Binary("b1")});
  Dataset d = MakeToyDataset(schema, 2500, 5);
  // A generalized member forces the radix kernel even though two attributes
  // are packed.
  ExpectIdenticalCounts(d, std::vector<GenAttr>{{0, 0}, {1, 1}, {2, 0}});
  ExpectIdenticalCounts(d, std::vector<GenAttr>{{0, 0}, {2, 0}});
}

TEST(ColumnStore, SameAttributeAtTwoLevels) {
  Schema schema({Attribute::Continuous("c", 0, 16, 16)});
  Dataset d = MakeToyDataset(schema, 500, 7);
  // Level 0 and level 2 of the same attribute in one joint: the cached
  // columns must not alias each other.
  ExpectIdenticalCounts(d, std::vector<GenAttr>{{0, 0}, {0, 2}});
}

TEST(ColumnStore, DatasetsDifferingInOneRowCountDifferently) {
  Schema schema({Attribute::Binary("a"), Attribute::Binary("b")});
  std::vector<std::vector<Value>> cols(2, std::vector<Value>(100));
  Dataset zeros = Dataset::FromColumns(schema, cols);
  std::vector<GenAttr> gattrs = {{0, 0}, {1, 0}};
  ProbTable before = zeros.JointCountsGeneralized(gattrs);
  EXPECT_DOUBLE_EQ(before[0], 100.0);  // all-zero rows

  cols[0][5] = 1;
  cols[1][5] = 1;
  Dataset changed = Dataset::FromColumns(schema, cols);
  ProbTable after = changed.JointCountsGeneralized(gattrs);
  EXPECT_DOUBLE_EQ(after[0], 99.0);
  EXPECT_DOUBLE_EQ(after[3], 1.0);
  EXPECT_NE(changed.store()->snapshot_id(), zeros.store()->snapshot_id());

  cols[0].push_back(1);
  cols[1].push_back(0);
  Dataset longer = Dataset::FromColumns(schema, std::move(cols));
  ProbTable appended = longer.JointCountsGeneralized(gattrs);
  EXPECT_DOUBLE_EQ(appended[2], 1.0);
  EXPECT_DOUBLE_EQ(appended.Sum(), 101.0);

  // Each dataset keeps counting its own rows.
  EXPECT_DOUBLE_EQ(zeros.JointCountsGeneralized(gattrs)[0], 100.0);
}

TEST(ColumnStore, SnapshotOutlivesItsDataset) {
  Schema schema({Attribute::Binary("a"), Attribute::Binary("b")});
  std::shared_ptr<const ColumnStore> snapshot;
  {
    std::vector<Value> a(128, 0);
    for (int r = 0; r < 128; r += 2) a[r] = 1;
    Dataset d =
        Dataset::FromColumns(schema, {std::move(a), std::vector<Value>(128)});
    snapshot = d.store();
  }
  // Every dataset over these rows is gone; a counting pass that still holds
  // the snapshot must read it intact.
  EXPECT_EQ(snapshot->num_rows(), 128);
  std::vector<GenAttr> gattrs = {{0, 0}};
  std::vector<double> cells(2, 0.0);
  snapshot->AccumulateCounts(gattrs, cells);
  EXPECT_DOUBLE_EQ(cells[1], 64.0);
}

// Copies made before the first count, counted from several threads at once:
// the snapshot is built exactly once and every copy gets it.
TEST(ColumnStore, ConcurrentFirstCountsShareOneSnapshot) {
  constexpr int kThreads = 8;
  Dataset d = MakeNltcs(4, 3000);
  std::vector<Dataset> copies(kThreads, d);
  std::vector<std::shared_ptr<const ColumnStore>> stores(kThreads);
  std::vector<double> sums(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<GenAttr> gattrs = {{t, 0}, {t + 1, 0}};
      sums[t] = copies[t].JointCountsGeneralized(gattrs).Sum();
      stores[t] = copies[t].store();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stores[t], d.store()) << "thread " << t;
    EXPECT_DOUBLE_EQ(sums[t], 3000.0);
  }
}

TEST(ColumnStore, RepeatedCallsReuseScratchCleanly) {
  Dataset d = MakeNltcs(3, 2000);
  std::vector<GenAttr> wide = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  std::vector<GenAttr> narrow = {{5, 0}, {6, 0}};
  // A wide call followed by a narrow one must not leak stale scratch counts.
  ProbTable first = d.JointCountsGeneralized(wide);
  ProbTable second = d.JointCountsGeneralized(narrow);
  ProbTable second_again = d.JointCountsGeneralized(narrow);
  for (size_t i = 0; i < second.size(); ++i) {
    ASSERT_EQ(second[i], second_again[i]);
  }
  EXPECT_DOUBLE_EQ(first.Sum(), 2000.0);
  EXPECT_DOUBLE_EQ(second.Sum(), 2000.0);
}

TEST(ColumnStore, NltcsScoringShapedCandidates) {
  // The exact shape the greedy loop counts: (parents..., child) over NLTCS.
  Dataset d = MakeNltcs(1, 21574);
  for (int parents : {1, 2, 3, 5, 7}) {
    std::vector<GenAttr> gattrs;
    for (int a = 0; a <= parents; ++a) gattrs.push_back(GenAttr{a, 0});
    ExpectIdenticalCounts(d, gattrs);
  }
}

TEST(ColumnStore, PackedColumnsExposeBitExactRows) {
  Schema schema({Attribute::Binary("a")});
  std::vector<Value> a(70, 0);
  for (int r = 0; r < 70; r += 3) a[r] = 1;
  Dataset d = Dataset::FromColumns(schema, {std::move(a)});
  std::shared_ptr<const ColumnStore> store = d.store();
  ASSERT_TRUE(store->packed(0));
  std::span<const uint64_t> words = store->packed_words(0);
  ASSERT_EQ(words.size(), 2u);
  for (int r = 0; r < 70; ++r) {
    uint64_t bit = (words[r / 64] >> (r % 64)) & 1;
    EXPECT_EQ(bit, static_cast<uint64_t>(d.at(r, 0))) << "row " << r;
  }
  // Tail bits past the last row stay zero.
  EXPECT_EQ(words[1] >> 6, 0u);
}

}  // namespace
}  // namespace privbayes
