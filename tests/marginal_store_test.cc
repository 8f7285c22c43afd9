// Tests for data/marginal_store: bit-identical cached counting (hit, miss,
// reordered, disabled), snapshot isolation under mutation, byte-budget LRU
// eviction, the PRIVBAYES_MARGINAL_CACHE parser, and 16-thread concurrent
// mixed hit/miss/eviction hammering.

#include "data/marginal_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "data/generators.h"

namespace privbayes {
namespace {

void ExpectBitIdentical(const ProbTable& want, const ProbTable& got) {
  ASSERT_EQ(want.vars(), got.vars());
  ASSERT_EQ(want.cards(), got.cards());
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(std::memcmp(want.values().data(), got.values().data(),
                        want.size() * sizeof(double)),
            0);
}

// Every test reconfigures the process-wide store; restore the environment
// default afterwards so test order never matters.
class MarginalStoreTest : public ::testing::Test {
 protected:
  void TearDown() override { MarginalStore::Instance().ResetFromEnv(); }
};

TEST_F(MarginalStoreTest, BitIdenticalToUncachedOnGeneralizedAdult) {
  Dataset data = MakeAdult(11, 4000);
  MarginalStore& store = MarginalStore::Instance();
  store.ConfigureForTesting(true, MarginalStore::kDefaultByteBudget);

  // Mixed taxonomy levels (one level up wherever the attribute has a
  // hierarchy), sorted and unsorted orders.
  auto up = [&](int attr) {
    int levels = data.schema().attr(attr).taxonomy.num_levels();
    return GenAttr{attr, levels > 1 ? 1 : 0};
  };
  std::vector<std::vector<GenAttr>> sets = {
      {{0, 0}, {1, 0}},
      {up(2), {0, 0}, {5, 0}},             // unsorted: needs a reorder
      {{3, 0}, up(1), {8, 0}, up(6)},      // unsorted, generalized
      {{4, 0}},
      {{7, 0}, {2, 0}, up(9)},
  };
  for (const std::vector<GenAttr>& gattrs : sets) {
    ProbTable direct = data.JointCountsGeneralized(gattrs);
    bool hit = true;
    ProbTable miss_path = store.CountsOrdered(data, gattrs, &hit);
    EXPECT_FALSE(hit);
    ExpectBitIdentical(direct, miss_path);
    ProbTable hit_path = store.CountsOrdered(data, gattrs, &hit);
    EXPECT_TRUE(hit);
    ExpectBitIdentical(direct, hit_path);
  }
}

TEST_F(MarginalStoreTest, OneEntryServesEveryArrangementOfASet) {
  Dataset data = MakeNltcs(3, 2000);
  MarginalStore& store = MarginalStore::Instance();
  store.ConfigureForTesting(true, MarginalStore::kDefaultByteBudget);

  std::vector<GenAttr> ab = {{2, 0}, {5, 0}, {9, 0}};
  std::vector<GenAttr> ba = {{9, 0}, {2, 0}, {5, 0}};
  bool hit = true;
  std::shared_ptr<const ProbTable> first = store.Counts(data, ab, &hit);
  EXPECT_FALSE(hit);
  // Canonical order: vars sorted by GenVarId whatever the request order.
  EXPECT_EQ(first->vars(),
            (std::vector<int>{GenVarId(2), GenVarId(5), GenVarId(9)}));
  std::shared_ptr<const ProbTable> second = store.Counts(data, ba, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());
  ExpectBitIdentical(data.JointCountsGeneralized(ba),
                     store.CountsOrdered(data, ba));
  MarginalStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(MarginalStoreTest, DisabledStoreCountsDirectly) {
  Dataset data = MakeNltcs(4, 1000);
  MarginalStore& store = MarginalStore::Instance();
  store.ConfigureForTesting(false, MarginalStore::kDefaultByteBudget);

  std::vector<GenAttr> gattrs = {{1, 0}, {0, 0}};
  bool hit = true;
  ProbTable a = store.CountsOrdered(data, gattrs, &hit);
  EXPECT_FALSE(hit);
  ProbTable b = store.CountsOrdered(data, gattrs, &hit);
  EXPECT_FALSE(hit);
  ExpectBitIdentical(data.JointCountsGeneralized(gattrs), a);
  ExpectBitIdentical(a, b);
  MarginalStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.skipped, 2u);
}

TEST_F(MarginalStoreTest, DatasetDifferingInOneCellGetsAFreshKey) {
  Dataset data = MakeNltcs(5, 1500);
  MarginalStore& store = MarginalStore::Instance();
  store.ConfigureForTesting(true, MarginalStore::kDefaultByteBudget);

  std::vector<GenAttr> gattrs = {{0, 0}, {3, 0}};
  ProbTable before = store.CountsOrdered(data, gattrs);
  ExpectBitIdentical(data.JointCountsGeneralized(gattrs), before);

  // The same rows with one cell flipped are another dataset: counting it
  // must key on a fresh snapshot id and recount — never serve the first
  // dataset's counts.
  std::vector<std::vector<Value>> cols;
  for (int c = 0; c < data.num_attrs(); ++c) cols.push_back(data.column(c));
  cols[0][0] = cols[0][0] == 0 ? Value{1} : Value{0};
  Dataset flipped = Dataset::FromColumns(data.schema(), std::move(cols));
  bool hit = true;
  ProbTable after = store.CountsOrdered(flipped, gattrs, &hit);
  EXPECT_FALSE(hit);
  ExpectBitIdentical(flipped.JointCountsGeneralized(gattrs), after);
  EXPECT_NE(std::memcmp(before.values().data(), after.values().data(),
                        before.size() * sizeof(double)),
            0);

  // A copy shares the snapshot: same key, so this one is a hit.
  Dataset copy = flipped;
  store.CountsOrdered(copy, gattrs, &hit);
  EXPECT_TRUE(hit);
}

TEST_F(MarginalStoreTest, LruEvictionAtTightByteBudget) {
  Dataset data = MakeNltcs(6, 1200);
  MarginalStore& store = MarginalStore::Instance();

  // Size one entry with a roomy single-shard config, then shrink the budget
  // to exactly three entries so the fourth insert must evict.
  std::vector<std::vector<GenAttr>> sets = {
      {{0, 0}, {1, 0}}, {{2, 0}, {3, 0}}, {{4, 0}, {5, 0}}, {{6, 0}, {7, 0}}};
  store.ConfigureForTesting(true, MarginalStore::kDefaultByteBudget,
                            /*num_shards=*/1);
  store.Counts(data, sets[0]);
  uint64_t entry_bytes = store.stats().bytes;
  ASSERT_GT(entry_bytes, 0u);

  store.ConfigureForTesting(true, 3 * entry_bytes + entry_bytes / 2,
                            /*num_shards=*/1);
  bool hit = false;
  store.Counts(data, sets[0]);
  store.Counts(data, sets[1]);
  store.Counts(data, sets[2]);
  EXPECT_EQ(store.stats().entries, 3u);
  store.Counts(data, sets[0], &hit);  // refresh: sets[1] is now the LRU tail
  EXPECT_TRUE(hit);
  store.Counts(data, sets[3]);  // over budget: evicts sets[1]

  MarginalStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 3 * entry_bytes + entry_bytes / 2);
  store.Counts(data, sets[0], &hit);
  EXPECT_TRUE(hit);
  store.Counts(data, sets[3], &hit);
  EXPECT_TRUE(hit);
  store.Counts(data, sets[1], &hit);  // the evicted one: recounted
  EXPECT_FALSE(hit);
  ExpectBitIdentical(data.JointCountsGeneralized(sets[1]),
                     store.CountsOrdered(data, sets[1]));
}

TEST_F(MarginalStoreTest, OversizedEntryIsServedUncached) {
  Dataset data = MakeNltcs(7, 800);
  MarginalStore& store = MarginalStore::Instance();
  store.ConfigureForTesting(true, /*byte_budget=*/64, /*num_shards=*/1);
  std::vector<GenAttr> gattrs = {{0, 0}, {1, 0}, {2, 0}};
  bool hit = true;
  ProbTable counts = store.CountsOrdered(data, gattrs, &hit);
  EXPECT_FALSE(hit);
  ExpectBitIdentical(data.JointCountsGeneralized(gattrs), counts);
  MarginalStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.skipped, 1u);
}

TEST_F(MarginalStoreTest, EmptySetCountsRows) {
  Dataset data = MakeNltcs(8, 321);
  MarginalStore& store = MarginalStore::Instance();
  store.ConfigureForTesting(true, MarginalStore::kDefaultByteBudget);
  std::vector<GenAttr> none;
  ProbTable counts = store.CountsOrdered(data, none);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 321.0);
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(MarginalCacheConfig, ParsesTheEnvOverride) {
  EXPECT_TRUE(MarginalCacheConfigFromString(nullptr).enabled);
  EXPECT_EQ(MarginalCacheConfigFromString(nullptr).byte_budget, 0u);
  EXPECT_TRUE(MarginalCacheConfigFromString("").enabled);
  EXPECT_TRUE(MarginalCacheConfigFromString("on").enabled);
  EXPECT_TRUE(MarginalCacheConfigFromString("1").enabled);
  EXPECT_TRUE(MarginalCacheConfigFromString("auto").enabled);
  EXPECT_FALSE(MarginalCacheConfigFromString("off").enabled);
  EXPECT_FALSE(MarginalCacheConfigFromString("0").enabled);
  EXPECT_FALSE(MarginalCacheConfigFromString("false").enabled);
  MarginalCacheConfig sized = MarginalCacheConfigFromString("12345678");
  EXPECT_TRUE(sized.enabled);
  EXPECT_EQ(sized.byte_budget, 12345678u);
  // Text outside those forms is an error, not the default cap.
  EXPECT_THROW(MarginalCacheConfigFromString("garbage"),
               std::invalid_argument);
  EXPECT_THROW(MarginalCacheConfigFromString("64kb"), std::invalid_argument);
}

TEST_F(MarginalStoreTest, SixteenThreadMixedHitMissHammering) {
  Dataset data = MakeNltcs(9, 4000);
  MarginalStore& store = MarginalStore::Instance();

  // 24 sets, references counted uncached up front. A budget of about six
  // entries across 4 shards keeps every thread mixing hits, misses and
  // evictions for the whole run.
  std::vector<std::vector<GenAttr>> sets;
  for (int a = 0; a < 12; ++a) {
    sets.push_back({{a, 0}, {(a + 3) % 16, 0}});
    sets.push_back({{a, 0}, {(a + 5) % 16, 0}, {(a + 11) % 16, 0}});
  }
  std::vector<ProbTable> reference;
  reference.reserve(sets.size());
  for (const std::vector<GenAttr>& gattrs : sets) {
    reference.push_back(data.JointCountsGeneralized(gattrs));
  }

  store.ConfigureForTesting(true, MarginalStore::kDefaultByteBudget,
                            /*num_shards=*/1);
  store.Counts(data, sets[0]);
  uint64_t entry_bytes = store.stats().bytes;
  ASSERT_GT(entry_bytes, 0u);
  // Room for ~12 of the 24 entries across 4 shards: every thread keeps
  // mixing hits, misses and evictions for the whole run, and asking for
  // each set twice in a row makes hits all but guaranteed.
  store.ConfigureForTesting(true, 12 * entry_bytes, /*num_shards=*/4);

  constexpr int kThreads = 16;
  constexpr int kIterations = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        size_t s = static_cast<size_t>(t * 7 + i / 2) % sets.size();
        ProbTable got = store.CountsOrdered(data, sets[s]);
        const ProbTable& want = reference[s];
        if (got.vars() != want.vars() || got.size() != want.size() ||
            std::memcmp(got.values().data(), want.values().data(),
                        want.size() * sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  MarginalStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 12 * entry_bytes);
}

}  // namespace
}  // namespace privbayes
