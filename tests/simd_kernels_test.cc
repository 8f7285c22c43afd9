// Equivalence and dispatch tests for the SIMD counting subsystem: every
// kernel the runtime dispatcher can select (scalar tree, AVX2/AVX-512 index
// assembly, AVX-512 vpopcntdq tree, and the packed radix kernel) must return
// counts BIT-IDENTICAL to the seed's naive pass, at row counts that straddle
// the 64/256/512-row block boundaries the kernels tile by.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <vector>

#include "common/cpu.h"
#include "common/random.h"
#include "data/column_store.h"
#include "data/count_kernels.h"
#include "data/dataset.h"
#include "data/generators.h"

namespace privbayes {
namespace {

// Forces a dispatch configuration for the current scope, restoring the
// environment-derived default on exit.
class ScopedSimd {
 public:
  explicit ScopedSimd(SimdLevel level) { SetSimdForTesting(level); }
  ~ScopedSimd() { ResetSimdForTesting(); }
};

// Every level the running CPU can actually dispatch to.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

Dataset RandomBinaryDataset(int num_attrs, int num_rows, uint64_t seed) {
  std::vector<Attribute> attrs;
  for (int i = 0; i < num_attrs; ++i) {
    attrs.push_back(Attribute::Binary("b" + std::to_string(i)));
  }
  std::vector<std::vector<Value>> cols(num_attrs,
                                       std::vector<Value>(num_rows));
  Rng rng(seed);
  for (int c = 0; c < num_attrs; ++c) {
    for (int r = 0; r < num_rows; ++r) {
      cols[c][r] = static_cast<Value>(rng.UniformInt(2));
    }
  }
  return Dataset::FromColumns(Schema(attrs), std::move(cols));
}

void ExpectIdenticalCounts(const Dataset& d, std::span<const GenAttr> gattrs,
                           const char* what) {
  ProbTable engine = d.JointCountsGeneralized(gattrs);
  ProbTable naive = d.JointCountsGeneralizedNaive(gattrs);
  ASSERT_EQ(engine.vars(), naive.vars()) << what;
  for (size_t i = 0; i < engine.size(); ++i) {
    ASSERT_EQ(engine[i], naive[i])
        << what << " cell " << i << " (level "
        << SimdLevelName(ActiveSimd().level) << ")";
  }
  EXPECT_DOUBLE_EQ(engine.Sum(), static_cast<double>(d.num_rows())) << what;
}

TEST(SimdKernels, AllDispatchPathsMatchNaiveAcrossArities) {
  // n values straddle the 64-row word, the AVX2 256-row flush cadence and
  // the AVX-512 tree's 512-row group (none divisible by 64/256/512, plus
  // exact multiples); arities 1..10 cover every kernel plus the k > 8 radix
  // fallback.
  for (int n : {1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1000, 4097}) {
    Dataset d = RandomBinaryDataset(10, n, 1000 + n);
    for (SimdLevel level : AvailableLevels()) {
      ScopedSimd forced(level);
      for (int arity = 1; arity <= 10; ++arity) {
        std::vector<GenAttr> gattrs;
        for (int j = 0; j < arity; ++j) {
          gattrs.push_back(GenAttr{(j * 3) % 10, 0});
        }
        // De-duplicate attrs produced by the stride walk.
        std::sort(gattrs.begin(), gattrs.end());
        gattrs.erase(std::unique(gattrs.begin(), gattrs.end()),
                     gattrs.end());
        ExpectIdenticalCounts(d, gattrs, "random binary");
      }
    }
  }
}

TEST(SimdKernels, ConstantColumnsMatchNaive) {
  // All-zero and all-one columns: the index-assembly kernels must not count
  // phantom rows into cell 0 (the tail-mask path) and the tree kernels must
  // prune correctly when whole subtrees are empty.
  for (int n : {65, 513, 777}) {
    std::vector<Attribute> attrs;
    for (int i = 0; i < 8; ++i) {
      attrs.push_back(Attribute::Binary("b" + std::to_string(i)));
    }
    Dataset zeros = Dataset::FromColumns(
        Schema(attrs),
        std::vector<std::vector<Value>>(8, std::vector<Value>(n)));
    Dataset ones = Dataset::FromColumns(
        Schema(attrs),
        std::vector<std::vector<Value>>(8, std::vector<Value>(n, 1)));
    for (SimdLevel level : AvailableLevels()) {
      ScopedSimd forced(level);
      for (int arity : {1, 4, 7, 8}) {
        std::vector<GenAttr> gattrs;
        for (int j = 0; j < arity; ++j) gattrs.push_back(GenAttr{j, 0});
        ExpectIdenticalCounts(zeros, gattrs, "all-zero");
        ExpectIdenticalCounts(ones, gattrs, "all-one");
      }
    }
  }
}

TEST(SimdKernels, RadixMatchesNaiveOnGeneralizedAdult) {
  Dataset d = MakeAdult(11, 4001);
  const Schema& schema = d.schema();
  std::vector<GenAttr> generalized;
  for (int a = 0; a < schema.num_attrs() && a < 5; ++a) {
    int level = schema.attr(a).taxonomy.num_levels() > 1 ? 1 : 0;
    generalized.push_back(GenAttr{a, level});
  }
  std::vector<std::vector<GenAttr>> sets = {
      generalized,
      {generalized[0], generalized[1]},
      {GenAttr{0, 0}, generalized[2], generalized[3]},
  };
  for (const std::vector<GenAttr>& gattrs : sets) {
    for (SimdLevel level : AvailableLevels()) {
      ScopedSimd forced(level);
      ExpectIdenticalCounts(d, gattrs, "generalized adult");
    }
  }
}

TEST(SimdKernels, MinimalBitWidthsFollowCardinality) {
  Schema schema({Attribute::Binary("b"),                    // card 2  -> 1 bit
                 Attribute::Categorical("c4", 4),           // card 4  -> 2 bits
                 Attribute::Continuous("c16", 0, 16, 16),   // card 16 -> 4 bits
                 Attribute::Categorical("c100", 100),       // card 100-> 8 bits
                 Attribute::Categorical("c300", 300)});     // card 300->16 bits
  Dataset d = Dataset::FromColumns(
      schema, std::vector<std::vector<Value>>(5, std::vector<Value>(100)));
  std::shared_ptr<const ColumnStore> store = d.store();
  EXPECT_EQ(store->packed_bits(0, 0), 1);
  EXPECT_EQ(store->packed_bits(1, 0), 2);
  EXPECT_EQ(store->packed_bits(2, 0), 4);
  EXPECT_EQ(store->packed_bits(3, 0), 8);
  EXPECT_EQ(store->packed_bits(4, 0), 16);
  // The binary-tree taxonomy of the continuous attribute halves cardinality
  // per level; level 3 has cardinality 2 -> 1 bit.
  EXPECT_EQ(store->packed_bits(2, 3), 1);
}

TEST(SimdKernels, SelectPackedKernelNeverNull) {
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimd forced(level);
    for (int k = 1; k <= kMaxPackedAttrs; ++k) {
      EXPECT_NE(SelectPackedKernel(k), nullptr)
          << "k=" << k << " level=" << SimdLevelName(level);
    }
  }
}

TEST(SimdKernels, ScalarTableIsComplete) {
  for (int k = 1; k <= kMaxPackedAttrs; ++k) {
    EXPECT_NE(kScalarPackedKernels[k], nullptr) << "k=" << k;
  }
}

TEST(SimdKernels, EnvOverrideParsing) {
  const SimdLevel detected = DetectedSimdLevel();
  // Forced-fallback values.
  EXPECT_EQ(SimdLevelFromString("off", detected), SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelFromString("OFF", detected), SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelFromString("scalar", detected), SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelFromString("0", detected), SimdLevel::kScalar);
  // Caps clamp to what the CPU supports.
  EXPECT_LE(SimdLevelFromString("avx2", detected),
            std::max(SimdLevel::kAvx2, SimdLevel::kScalar));
  EXPECT_LE(SimdLevelFromString("avx512", detected), detected);
  // Unset / auto / unrecognized fall through to detection.
  EXPECT_EQ(SimdLevelFromString(nullptr, detected), detected);
  EXPECT_EQ(SimdLevelFromString("", detected), detected);
  EXPECT_EQ(SimdLevelFromString("auto", detected), detected);
  EXPECT_EQ(SimdLevelFromString("bogus", detected), detected);
}

TEST(SimdKernels, ActiveConfigRespectsDetection) {
  EXPECT_LE(ActiveSimd().level, DetectedSimdLevel());
  // Forcing beyond detection clamps.
  {
    ScopedSimd forced(SimdLevel::kAvx512);
    EXPECT_LE(ActiveSimd().level, DetectedSimdLevel());
  }
  // If the suite runs under PRIVBAYES_SIMD=off (the CI fallback job), the
  // active level must be scalar.
  const char* env = std::getenv("PRIVBAYES_SIMD");
  if (env != nullptr && std::string_view(env) == "off") {
    EXPECT_EQ(ActiveSimd().level, SimdLevel::kScalar);
  }
}

TEST(SimdKernels, NltcsScaleGreedyShapedSets) {
  // The exact shape the greedy loop counts, at NLTCS scale, on every level.
  Dataset d = MakeNltcs(12, 21574);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimd forced(level);
    for (int attrs : {2, 5, 8}) {
      std::vector<GenAttr> gattrs;
      for (int a = 0; a < attrs; ++a) gattrs.push_back(GenAttr{a, 0});
      ExpectIdenticalCounts(d, gattrs, "nltcs");
    }
  }
}

}  // namespace
}  // namespace privbayes
