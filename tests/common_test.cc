// Tests for common/: Rng determinism and distribution sanity, env knobs,
// strict flag parsing, /proc memory readers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/env.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/marginal_store.h"
#include "obs/log.h"
#include "serve/wire.h"

namespace privbayes {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.Uniform(-3, 5);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[rng.UniformInt(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, 500);
  }
}

TEST(Rng, LaplaceMeanAndScale) {
  Rng rng(11);
  const int kDraws = 200000;
  double scale = 2.5;
  double sum = 0, abs_sum = 0;
  for (int i = 0; i < kDraws; ++i) {
    double x = rng.Laplace(scale);
    sum += x;
    abs_sum += std::abs(x);
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.05);          // mean 0
  EXPECT_NEAR(abs_sum / kDraws, scale, 0.05);    // E|X| = b
}

TEST(Rng, LaplaceZeroScaleIsNoiseless) {
  Rng rng(12);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.Laplace(0.0), 0.0);
    EXPECT_EQ(rng.Laplace(-1.0), 0.0);
  }
}

TEST(Rng, GumbelMeanIsEulerGamma) {
  Rng rng(13);
  const int kDraws = 200000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) sum += rng.Gumbel();
  EXPECT_NEAR(sum / kDraws, 0.5772, 0.02);
}

TEST(Rng, DiscreteFollowsWeights) {
  Rng rng(14);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[rng.Discrete(w)]++;
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / double(kDraws), 0.6, 0.01);
}

TEST(Rng, LogDiscretePrefersLargerLogits) {
  Rng rng(15);
  std::vector<double> logits = {0.0, 2.0};  // odds e^2 ≈ 7.39 : 1
  int second = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.LogDiscrete(logits) == 1) ++second;
  }
  double p = std::exp(2.0) / (1.0 + std::exp(2.0));
  EXPECT_NEAR(second / double(kDraws), p, 0.01);
}

TEST(Rng, LogDiscreteHandlesVeryNegativeLogits) {
  Rng rng(16);
  std::vector<double> logits = {-1e9, -1e9 + 1, -1e9};
  // Must not crash or return out-of-range; middle should win most often.
  int mid = 0;
  for (int i = 0; i < 1000; ++i) {
    size_t pick = rng.LogDiscrete(logits);
    ASSERT_LT(pick, logits.size());
    if (pick == 1) ++mid;
  }
  EXPECT_GT(mid, 500);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng b = a.Fork();
  // Streams should differ.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(SplitMix, DeriveSeedIsStable) {
  EXPECT_EQ(DeriveSeed(1, 2), DeriveSeed(1, 2));
  EXPECT_NE(DeriveSeed(1, 2), DeriveSeed(1, 3));
  EXPECT_NE(DeriveSeed(1, 2), DeriveSeed(2, 2));
}

TEST(Env, IntAndDoubleAndFlag) {
  ::setenv("PB_TEST_INT", "42", 1);
  ::setenv("PB_TEST_DBL", "2.5", 1);
  ::setenv("PB_TEST_FLAG", "1", 1);
  ::setenv("PB_TEST_EMPTY", "", 1);
  EXPECT_EQ(EnvInt("PB_TEST_INT", 7), 42);
  EXPECT_EQ(EnvInt("PB_TEST_MISSING", 7), 7);
  EXPECT_DOUBLE_EQ(EnvDouble("PB_TEST_DBL", 1.0), 2.5);
  EXPECT_TRUE(EnvFlag("PB_TEST_FLAG"));
  EXPECT_FALSE(EnvFlag("PB_TEST_EMPTY"));
  EXPECT_FALSE(EnvFlag("PB_TEST_MISSING"));
  ::setenv("PB_TEST_FLAG", "0", 1);
  EXPECT_FALSE(EnvFlag("PB_TEST_FLAG"));
}

// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// Only the two knobs that name a mode rather than a number keep a fallback
// for text they do not know: PRIVBAYES_SIMD runs at the detected level and
// PRIVBAYES_LOG_LEVEL at info, so a typo never stops a process.
TEST(Env, GarbageFallsBackToDefault) {
  EXPECT_EQ(SimdLevelFromString("avx9000", SimdLevel::kAvx2),
            SimdLevel::kAvx2);
  EXPECT_EQ(SimdLevelFromString("garbage", SimdLevel::kScalar),
            SimdLevel::kScalar);
  ScopedEnv level("PRIVBAYES_LOG_LEVEL", "garbage");
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
}

// The numeric knobs parse the whole text: unset or empty keeps the default,
// and any other malformed text throws, naming the variable and the text.
TEST(Env, MalformedNumericKnobsThrowNamingTheVariable) {
  struct Case {
    const char* variable;
    const char* text;
    std::function<void()> read;
  };
  const auto env_int = [] { EnvInt("PB_TEST_KNOB", 5); };
  const auto env_double = [] { EnvDouble("PB_TEST_KNOB", 1.5); };
  const auto threads = [] { ThreadPool::ThreadCountFromEnv(); };
  const auto cache = [] {
    MarginalCacheConfigFromString(std::getenv("PRIVBAYES_MARGINAL_CACHE"));
  };
  const auto faults = [] { WireFaults::ResetFromEnv(); };
  const Case cases[] = {
      {"PB_TEST_KNOB", "12x", env_int},
      {"PB_TEST_KNOB", "64kb", env_int},
      {"PB_TEST_KNOB", "-1", env_int},
      {"PB_TEST_KNOB", " 3", env_int},
      {"PB_TEST_KNOB", "0.5y", env_double},
      {"PB_TEST_KNOB", "-1", env_double},
      {"PRIVBAYES_THREADS", "12x", threads},
      {"PRIVBAYES_THREADS", "-1", threads},
      {"PRIVBAYES_THREADS", "0", threads},
      {"PRIVBAYES_THREADS", "4096", threads},
      {"PRIVBAYES_MARGINAL_CACHE", "64kb", cache},
      {"PRIVBAYES_MARGINAL_CACHE", "12x", cache},
      {"PRIVBAYES_MARGINAL_CACHE", "-1", cache},
      {"PRIVBAYES_WIRE_FAULTS", "7:0.5y", faults},
      {"PRIVBAYES_WIRE_FAULTS", "7", faults},
      {"PRIVBAYES_WIRE_FAULTS", "x:0.5", faults},
      {"PRIVBAYES_WIRE_FAULTS", "7:1.5", faults},
  };
  for (const Case& c : cases) {
    ScopedEnv env(c.variable, c.text);
    try {
      c.read();
      ADD_FAILURE() << c.variable << "='" << c.text << "' did not throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.variable), std::string::npos) << what;
      EXPECT_NE(what.find(c.text), std::string::npos) << what;
    }
  }

  // Unset or empty keeps the default.
  ::unsetenv("PB_TEST_KNOB");
  EXPECT_EQ(EnvInt("PB_TEST_KNOB", 5), 5);
  EXPECT_DOUBLE_EQ(EnvDouble("PB_TEST_KNOB", 1.5), 1.5);
  {
    ScopedEnv empty("PB_TEST_KNOB", "");
    EXPECT_EQ(EnvInt("PB_TEST_KNOB", 5), 5);
    EXPECT_DOUBLE_EQ(EnvDouble("PB_TEST_KNOB", 1.5), 1.5);
  }
  {
    ScopedEnv empty("PRIVBAYES_THREADS", "");
    EXPECT_EQ(ThreadPool::ThreadCountFromEnv(),
              std::max<size_t>(1, std::thread::hardware_concurrency()));
  }
  {
    ScopedEnv four("PRIVBAYES_THREADS", "4");
    EXPECT_EQ(ThreadPool::ThreadCountFromEnv(), 4u);
  }
  {
    ScopedEnv empty("PRIVBAYES_WIRE_FAULTS", "");
    WireFaults::ResetFromEnv();
    EXPECT_FALSE(WireFaults::enabled());
  }
}

TEST(Flags, ParseCountAcceptsOnlyWholeCountsUpToMax) {
  EXPECT_EQ(ParseCount("12", 100), 12);
  EXPECT_EQ(ParseCount("0", 100), 0);
  EXPECT_EQ(ParseCount("65535", 65535), 65535);
  for (const char* bad : {"12x", "-5", "", " 1", "+1", "abc", "1.5",
                          "65536", "99999999999999999999999"}) {
    EXPECT_FALSE(ParseCount(bad, 65535).has_value()) << "'" << bad << "'";
  }
}

TEST(Flags, ParseNonNegativeDoubleRejectsSuffixSignAndNonFinite) {
  EXPECT_EQ(ParseNonNegativeDouble("0.8"), 0.8);
  EXPECT_EQ(ParseNonNegativeDouble("1e-3"), 1e-3);
  EXPECT_EQ(ParseNonNegativeDouble("0"), 0.0);
  for (const char* bad : {"0.8abc", "-0.5", "-0", "", "abc", "inf", "nan",
                          "1e999", " 1"}) {
    EXPECT_FALSE(ParseNonNegativeDouble(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Env, PeakMemoryReadersSeeThisProcess) {
  // Address space always includes the resident set.
  const int64_t rss = PeakRssKb();
  const int64_t vm = PeakVmKb();
  EXPECT_GT(rss, 0);
  EXPECT_GE(vm, rss);
}

}  // namespace
}  // namespace privbayes
