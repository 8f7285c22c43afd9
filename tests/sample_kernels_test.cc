// Tests for the column-at-a-time sampling engine: every SIMD kernel the
// runtime dispatcher can select must match the scalar reference BIT FOR BIT
// (the determinism contract of NetworkSampler::kSampleStreamVersion), the
// 4-lane FastRng4 stream must match four interleaved FastRng lanes, and the
// versioned stream itself is pinned by golden prefixes so an accidental
// layout change fails loudly.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "bn/sample_kernels.h"
#include "bn/sampling.h"
#include "common/cpu.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/privbayes.h"
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

// Block lengths that straddle the 4- and 8-wide kernel tiles and the shard
// size, including every short-tail shape.
const size_t kBlockSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 64, 8191, 8192};

TEST(FastRng4, MatchesFourInterleavedFastRngLanes) {
  const uint64_t seed = 0xFEEDULL;
  FastRng lanes[4] = {FastRng(DeriveSeed(seed, 0)), FastRng(DeriveSeed(seed, 1)),
                      FastRng(DeriveSeed(seed, 2)),
                      FastRng(DeriveSeed(seed, 3))};
  uint64_t block[101];
  FastRng4(seed).NextBlock(block, 101);
  for (size_t i = 0; i < 101; ++i) {
    EXPECT_EQ(block[i], lanes[i & 3].Next()) << "draw " << i;
  }
}

TEST(FastRng4, UniformBlockIsNext53BitsScaled) {
  uint64_t raw[37];
  double u[37];
  FastRng4(42).NextBlock(raw, 37);
  FastRng4(42).UniformBlock(u, 37);
  for (size_t i = 0; i < 37; ++i) {
    EXPECT_EQ(u[i], static_cast<double>(raw[i] >> 11) * 0x1.0p-53);
    EXPECT_GE(u[i], 0.0);
    EXPECT_LT(u[i], 1.0);
  }
}

// Golden prefix of the stream-v2 RNG: these literals pin the exact layout
// (lane seeding, interleave, 53-bit scaling). If this test fails, the
// sampled stream changed — bump NetworkSampler::kSampleStreamVersion.
TEST(FastRng4, GoldenPrefixIsPinned) {
  const uint64_t kRaw[8] = {
      0x29a710e176b3a976ULL, 0xc7a7364935f5aadeULL, 0xdf1fcc6ebe5e26dcULL,
      0xeeee2c623db8b237ULL, 0xc3777a5c282fff7cULL, 0x27c0cbc9f95e748dULL,
      0x4c8e6e0cb2dec2fbULL, 0x3b6e9e8ccaf4047dULL};
  const double kUniform[8] = {
      0x1.4d38870bb59d4p-3, 0x1.8f4e6c926beb5p-1, 0x1.be3f98dd7cbc4p-1,
      0x1.dddc58c47b716p-1, 0x1.86eef4b8505ffp-1, 0x1.3e065e4fcaf38p-3,
      0x1.3239b832cb7bp-2,  0x1.db74f46657ap-3};
  uint64_t raw[8];
  double u[8];
  FastRng4(0x9e2026ULL).NextBlock(raw, 8);
  FastRng4(0x9e2026ULL).UniformBlock(u, 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(raw[i], kRaw[i]) << "draw " << i;
    EXPECT_EQ(u[i], kUniform[i]) << "draw " << i;
  }
}

TEST(SampleKernels, FillUniformBitIdenticalAcrossLevels) {
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimd forced(level);
    const SampleKernels kernels = SelectSampleKernels();
    for (size_t n : kBlockSizes) {
      for (uint64_t seed : {0ULL, 7ULL, 0xDEADBEEFULL}) {
        std::vector<double> got(n + 1, -1.0), want(n + 1, -1.0);
        kernels.fill_uniform(seed, n, got.data());
        kScalarSampleKernels.fill_uniform(seed, n, want.data());
        ASSERT_TRUE(std::memcmp(got.data(), want.data(),
                                n * sizeof(double)) == 0)
            << "level=" << static_cast<int>(level) << " n=" << n
            << " seed=" << seed;
        EXPECT_EQ(got[n], -1.0) << "wrote past the block";
      }
    }
  }
}

TEST(SampleKernels, ThresholdKernelsMatchScalar) {
  const size_t kSlices = 33;
  std::vector<double> thresholds(kSlices);
  FastRng rng(5);
  for (double& t : thresholds) t = rng.Uniform();
  thresholds[0] = 0.0;  // degenerate edges included
  thresholds[1] = 1.0;
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimd forced(level);
    const SampleKernels kernels = SelectSampleKernels();
    for (size_t n : kBlockSizes) {
      std::vector<double> u(n);
      std::vector<uint32_t> slices(n);
      FastRng4(n * 131 + 17).UniformBlock(u.data(), n);
      for (size_t i = 0; i < n; ++i) {
        slices[i] = static_cast<uint32_t>(rng.Next() % kSlices);
      }
      std::vector<Value> got(n + 1, Value{9}), want(n + 1, Value{9});
      kernels.threshold(u.data(), slices.data(), n, thresholds.data(),
                        got.data());
      kScalarSampleKernels.threshold(u.data(), slices.data(), n,
                                     thresholds.data(), want.data());
      ASSERT_EQ(got, want) << "level=" << static_cast<int>(level)
                           << " n=" << n;

      std::fill(got.begin(), got.end(), Value{9});
      std::fill(want.begin(), want.end(), Value{9});
      kernels.threshold_root(u.data(), n, thresholds[2], got.data());
      kScalarSampleKernels.threshold_root(u.data(), n, thresholds[2],
                                          want.data());
      ASSERT_EQ(got, want) << "root level=" << static_cast<int>(level)
                           << " n=" << n;
    }
  }
}

TEST(SampleKernels, AliasKernelsMatchScalar) {
  FastRng rng(11);
  for (uint32_t card : {3u, 5u, 17u, 257u}) {
    const size_t kSlices = 19;
    // Synthetic alias tables: probe equality doesn't require Vose-valid
    // contents, only identical arithmetic on identical inputs. The extra
    // trailing Value is the sentinel pad NetworkSampler maintains.
    std::vector<double> prob(kSlices * card);
    std::vector<Value> alias(kSlices * card + 1, Value{0});
    for (double& p : prob) p = rng.Uniform();
    for (size_t i = 0; i < kSlices * card; ++i) {
      alias[i] = static_cast<Value>(rng.Next() % card);
    }
    for (SimdLevel level : AvailableLevels()) {
      ScopedSimd forced(level);
      const SampleKernels kernels = SelectSampleKernels();
      for (size_t n : kBlockSizes) {
        std::vector<double> u(n);
        std::vector<uint32_t> slices(n);
        FastRng4(card * 1000 + n).UniformBlock(u.data(), n);
        for (size_t i = 0; i < n; ++i) {
          slices[i] = static_cast<uint32_t>(rng.Next() % kSlices);
        }
        std::vector<Value> got(n + 1, Value{999}), want(n + 1, Value{999});
        kernels.alias(u.data(), slices.data(), n, prob.data(), alias.data(),
                      card, got.data());
        kScalarSampleKernels.alias(u.data(), slices.data(), n, prob.data(),
                                   alias.data(), card, want.data());
        ASSERT_EQ(got, want) << "card=" << card
                             << " level=" << static_cast<int>(level)
                             << " n=" << n;

        std::fill(got.begin(), got.end(), Value{999});
        std::fill(want.begin(), want.end(), Value{999});
        kernels.alias_root(u.data(), n, prob.data(), alias.data(), card,
                           got.data());
        kScalarSampleKernels.alias_root(u.data(), n, prob.data(),
                                        alias.data(), card, want.data());
        ASSERT_EQ(got, want) << "root card=" << card
                             << " level=" << static_cast<int>(level)
                             << " n=" << n;
      }
    }
  }
}

// A three-attribute model covering all kernel families: binary root
// (threshold_root), binary child (threshold with slices), card-4 root
// (alias probe).
struct GoldenModel {
  Schema schema{std::vector<Attribute>{Attribute::Binary("x"),
                                       Attribute::Binary("y"),
                                       Attribute::Categorical("z", 4)}};
  BayesNet net;
  ConditionalSet cs;

  GoldenModel() {
    net.Add(APPair{0, {}});
    net.Add(APPair{1, {{0, 0}}});
    net.Add(APPair{2, {}});
    ProbTable px({GenVarId(0)}, {2});
    px[0] = 0.3;
    px[1] = 0.7;
    ProbTable py({GenVarId(0), GenVarId(1)}, {2, 2});
    py.values() = {0.1, 0.9, 0.8, 0.2};
    ProbTable pz({GenVarId(2)}, {4});
    pz.values() = {0.1, 0.2, 0.3, 0.4};
    cs.conditionals = {px, py, pz};
  }
};

// Golden prefix of sampled stream v2 itself: rows are a pure function of
// (model, base seed) and these are the first 16 rows for seed 0x5EED. A
// failure here means served replays against archived seeds would differ —
// bump kSampleStreamVersion if the change is intentional.
TEST(SampleStream, GoldenRowPrefixIsPinned) {
  ASSERT_EQ(NetworkSampler::kSampleStreamVersion, 2);
  const Value kX[16] = {1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1};
  const Value kY[16] = {0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0};
  const Value kZ[16] = {1, 2, 2, 0, 1, 3, 3, 3, 2, 1, 3, 2, 3, 1, 2, 1};
  GoldenModel m;
  NetworkSampler sampler(m.schema, m.net, m.cs);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimd forced(level);
    Dataset d = sampler.SampleChunk(0x5EEDULL, 0, 16);
    for (int r = 0; r < 16; ++r) {
      EXPECT_EQ(d.at(r, 0), kX[r]) << "level=" << static_cast<int>(level);
      EXPECT_EQ(d.at(r, 1), kY[r]) << "level=" << static_cast<int>(level);
      EXPECT_EQ(d.at(r, 2), kZ[r]) << "level=" << static_cast<int>(level);
    }
  }
}

bool DatasetsEqual(const Dataset& a, const Dataset& b) {
  if (a.num_rows() != b.num_rows() || a.num_attrs() != b.num_attrs()) {
    return false;
  }
  for (int c = 0; c < a.num_attrs(); ++c) {
    if (a.column(c) != b.column(c)) return false;
  }
  return true;
}

// SampleChunk issued from inside a one-index pool job: its shards run
// inline on one thread, the schedule the pool falls back to when nested.
Dataset SampleOnOneThread(const NetworkSampler& sampler, uint64_t base_seed,
                          int64_t rows) {
  std::optional<Dataset> out;
  ThreadPool::Global().Run(1, 1, [&](size_t, size_t) {
    out = sampler.SampleChunk(base_seed, 0, rows);
  });
  return std::move(*out);
}

PrivBayesModel FitSmall(const Dataset& data, uint64_t seed) {
  PrivBayesOptions opts;
  opts.epsilon = 0.8;
  opts.candidate_cap = 40;
  PrivBayes pb(opts);
  Rng rng(seed);
  return pb.Fit(data, rng);
}

// End-to-end determinism on all four paper datasets: identical tables from
// every dispatch level, with and without the thread pool, and from
// concurrent callers — the full contract the serving layer streams under.
TEST(SampleStream, BitIdenticalAcrossDispatchThreadsAndDatasets) {
  struct Case {
    const char* name;
    Dataset data;
  };
  const Case cases[] = {{"NLTCS", MakeNltcs(31, 1200)},
                        {"ACS", MakeAcs(32, 1200)},
                        {"Adult", MakeAdult(33, 1200)},
                        {"BR2000", MakeBr2000(34, 1200)}};
  const int kRows = 3 * NetworkSampler::kShardRows + 123;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PrivBayesModel model = FitSmall(c.data, 77);
    NetworkSampler sampler(model.encoded_schema, model.network,
                           model.conditionals);
    Dataset reference = [&] {
      ScopedSimd scalar(SimdLevel::kScalar);
      return SampleOnOneThread(sampler, 0xC0FFEEULL, kRows);
    }();
    for (SimdLevel level : AvailableLevels()) {
      ScopedSimd forced(level);
      for (bool parallel : {false, true}) {
        Dataset got = parallel ? sampler.SampleChunk(0xC0FFEEULL, 0, kRows)
                               : SampleOnOneThread(sampler, 0xC0FFEEULL, kRows);
        ASSERT_TRUE(DatasetsEqual(reference, got))
            << "level=" << static_cast<int>(level)
            << " parallel=" << parallel;
      }
    }
    // 16 concurrent callers share the sampler (and thread pool) at the
    // detected level; every one must see the reference bytes.
    std::vector<std::thread> callers;
    // One byte per caller: std::vector<bool> packs flags into shared words,
    // so concurrent writes to neighbouring flags would race.
    std::vector<char> ok(16, false);
    for (int t = 0; t < 16; ++t) {
      callers.emplace_back([&, t] {
        Dataset got = (t % 2) == 0
                          ? sampler.SampleChunk(0xC0FFEEULL, 0, kRows)
                          : SampleOnOneThread(sampler, 0xC0FFEEULL, kRows);
        ok[t] = DatasetsEqual(reference, got);
      });
    }
    for (std::thread& th : callers) th.join();
    for (int t = 0; t < 16; ++t) EXPECT_TRUE(ok[t]) << "caller " << t;
  }
}

// Chunks cut deep into the stream — first_shard · kShardRows far past
// 2^31 rows — must compose exactly like adjacent shallow chunks
// (regression: shard/row arithmetic was 32-bit once).
TEST(SampleStream, DeepStreamChunksComposeAcrossInt32Boundary) {
  GoldenModel m;
  NetworkSampler sampler(m.schema, m.net, m.cs);
  // Global rows ≈ 2.6e9 (> 2^31) and ≈ 2^43: both shard-index regimes.
  for (int64_t first_shard : {int64_t{320000}, int64_t{1} << 30}) {
    SCOPED_TRACE(first_shard);
    Dataset wide = sampler.SampleChunk(99, first_shard,
                                       2 * NetworkSampler::kShardRows + 7);
    Dataset tail = sampler.SampleChunk(99, first_shard + 1,
                                       NetworkSampler::kShardRows + 7);
    for (int r = 0; r < tail.num_rows(); ++r) {
      for (int c = 0; c < tail.num_attrs(); ++c) {
        ASSERT_EQ(wide.at(NetworkSampler::kShardRows + r, c), tail.at(r, c))
            << "row " << r << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace privbayes
