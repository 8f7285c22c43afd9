// Tests for core/score_f_dp: the F dynamic program against brute force,
// paper examples, thinning-error bounds, early exit, and bit-identity with
// a straightforward two-copy merge-and-prune reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "core/score_f_dp.h"
#include "core/score_functions.h"
#include "data/generators.h"

namespace privbayes {
namespace {

// ---- Reference frontier DP ------------------------------------------------
// A straightforward frontier DP, kept as a test-only oracle the way
// ScoreFBruteForce is: per column it builds both shifted copies of the
// frontier, merges them by a ascending, prunes right to left, and thins
// into a fresh vector. Simple and allocation-heavy; the library's fused
// pass must return the same bits for every input and every max_states.

struct RefState {
  int64_t a;
  int64_t b;
};

void RefMergeAndPrune(const std::vector<RefState>& lhs,
                      const std::vector<RefState>& rhs,
                      std::vector<RefState>* out) {
  std::vector<RefState> merged;
  size_t i = 0, j = 0;
  while (i < lhs.size() || j < rhs.size()) {
    bool take_lhs;
    if (i == lhs.size()) {
      take_lhs = false;
    } else if (j == rhs.size()) {
      take_lhs = true;
    } else if (lhs[i].a != rhs[j].a) {
      take_lhs = lhs[i].a < rhs[j].a;
    } else {
      take_lhs = lhs[i].b >= rhs[j].b;
    }
    const RefState& s = take_lhs ? lhs[i++] : rhs[j++];
    if (!merged.empty() && merged.back().a == s.a) continue;  // dominated
    merged.push_back(s);
  }
  out->clear();
  int64_t max_b = -1;
  for (size_t idx = merged.size(); idx > 0; --idx) {
    const RefState& s = merged[idx - 1];
    if (s.b > max_b) {
      out->push_back(s);
      max_b = s.b;
    }
  }
  std::reverse(out->begin(), out->end());
}

// Returns true when it removed at least one state.
bool RefThin(std::vector<RefState>* frontier, size_t max_states, int64_t n) {
  if (max_states == 0 || frontier->size() <= max_states) return false;
  int64_t g = std::max<int64_t>(1, n / static_cast<int64_t>(max_states));
  std::vector<RefState> thinned;
  int64_t last_bucket = -1;
  for (const RefState& s : *frontier) {
    int64_t bucket = s.a / g;
    if (bucket != last_bucket) {
      thinned.push_back(s);
      last_bucket = bucket;
    }
  }
  bool removed = thinned.size() < frontier->size();
  frontier->swap(thinned);
  return removed;
}

struct RefResult {
  double f;
  bool thinned;  // thinning removed a state at some column
};

RefResult RefScoreF(const std::vector<FColumn>& columns, int64_t n,
                    size_t max_states) {
  std::vector<RefState> frontier = {{0, 0}}, with_a, with_b, next;
  bool thinned = false;
  const int64_t half_up = (n + 1) / 2;
  for (const FColumn& col : columns) {
    with_a.clear();
    with_b.clear();
    for (const RefState& s : frontier) {
      with_a.push_back({s.a + col.first, s.b});
      with_b.push_back({s.a, s.b + col.second});
    }
    RefMergeAndPrune(with_a, with_b, &next);
    thinned |= RefThin(&next, max_states, n);
    frontier.swap(next);
    for (const RefState& s : frontier) {
      if (s.a >= half_up && s.b >= half_up) return {0.0, thinned};
    }
  }
  double best = 1.0;
  for (const RefState& s : frontier) {
    double ta = 0.5 - static_cast<double>(s.a) / static_cast<double>(n);
    double tb = 0.5 - static_cast<double>(s.b) / static_cast<double>(n);
    best = std::min(best, (ta > 0 ? ta : 0) + (tb > 0 ? tb : 0));
  }
  return {-best, thinned};
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

constexpr size_t kMaxStatesGrid[] = {0, 4, 16, 64, 2048, 8192};

TEST(ScoreFDp, PaperTable3Example) {
  // Table 3(a): n = 10; column counts (X=0, X=1): (6,1), (0,1), (0,1),
  // (0,1). Min L1 distance to a maximum joint distribution is 0.4, so
  // F = −0.2.
  std::vector<FColumn> cols = {{6, 1}, {0, 1}, {0, 1}, {0, 1}};
  EXPECT_NEAR(ScoreFFromColumns(cols, 10), -0.2, 1e-12);
  EXPECT_NEAR(ScoreFBruteForce(cols, 10), -0.2, 1e-12);
}

TEST(ScoreFDp, PerfectCorrelationScoresZero) {
  // Two columns, each pure, half the mass each: already a maximum joint
  // distribution.
  std::vector<FColumn> cols = {{5, 0}, {0, 5}};
  EXPECT_NEAR(ScoreFFromColumns(cols, 10), 0.0, 1e-12);
}

TEST(ScoreFDp, IndependentUniformScoresMinusQuarter) {
  // Uniform 2×2 with n = 8: columns (2,2), (2,2). Best assignment gives
  // K0 = K1 = 1/4 → F = −(1/4 + 1/4)... each (1/2 − 1/4) = 1/4 → −1/2? No:
  // assign column 1 to Z+0 (a = 2) and column 2 to Z+1 (b = 2):
  // a/n = b/n = 1/4, objective = 1/4 + 1/4 = 1/2... F = −... brute force is
  // authoritative here; just require DP == brute force.
  std::vector<FColumn> cols = {{2, 2}, {2, 2}};
  EXPECT_NEAR(ScoreFFromColumns(cols, 8), ScoreFBruteForce(cols, 8), 1e-12);
  EXPECT_NEAR(ScoreFFromColumns(cols, 8), -0.5, 1e-12);
}

TEST(ScoreFDp, SingleColumn) {
  // All mass in one column: best is max(c0, c1) toward one side.
  std::vector<FColumn> cols = {{3, 7}};
  // Assign to Z+1: b = 7 -> (1/2 - 0)+ + (1/2 - 0.7)+ = 0.5 -> F = -0.5.
  EXPECT_NEAR(ScoreFFromColumns(cols, 10), -0.5, 1e-12);
}

TEST(ScoreFDp, RangeIsMinusHalfToZero) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    int cols_n = 1 + static_cast<int>(rng.UniformInt(10));
    int64_t n = 0;
    std::vector<FColumn> cols(cols_n);
    for (FColumn& c : cols) {
      c.first = rng.UniformInt(20);
      c.second = rng.UniformInt(20);
      n += c.first + c.second;
    }
    if (n == 0) continue;
    double f = ScoreFFromColumns(cols, n);
    EXPECT_LE(f, 0.0);
    EXPECT_GE(f, -0.5 - 1e-12);
  }
}

TEST(ScoreFDp, MatchesBruteForceRandomized) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    int cols_n = 1 + static_cast<int>(rng.UniformInt(10));
    int64_t n = 0;
    std::vector<FColumn> cols(cols_n);
    for (FColumn& c : cols) {
      c.first = rng.UniformInt(12);
      c.second = rng.UniformInt(12);
      n += c.first + c.second;
    }
    if (n == 0) continue;
    EXPECT_NEAR(ScoreFFromColumns(cols, n), ScoreFBruteForce(cols, n), 1e-12)
        << "trial " << trial;
  }
}

TEST(ScoreFDp, ThinnedApproximationIsCloseAndBelow) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    int cols_n = 12;
    int64_t n = 0;
    std::vector<FColumn> cols(cols_n);
    for (FColumn& c : cols) {
      c.first = rng.UniformInt(400);
      c.second = rng.UniformInt(400);
      n += c.first + c.second;
    }
    double exact = ScoreFFromColumns(cols, n, 0);
    size_t max_states = 64;
    double approx = ScoreFFromColumns(cols, n, max_states);
    // Thinning under-estimates F by at most cols·(n/max_states)/n.
    double bound =
        static_cast<double>(cols_n) / static_cast<double>(max_states);
    EXPECT_LE(approx, exact + 1e-12);
    EXPECT_GE(approx, exact - bound - 1e-9) << "trial " << trial;
  }
}

TEST(ScoreFDp, LargeInstanceRunsFast) {
  // 128 columns over n = 20000: the NLTCS k=7 shape. Mostly a smoke/perf
  // guard — must complete well under a second with thinning.
  Rng rng(4);
  std::vector<FColumn> cols(128);
  int64_t n = 0;
  for (FColumn& c : cols) {
    c.first = rng.UniformInt(200);
    c.second = rng.UniformInt(200);
    n += c.first + c.second;
  }
  double f = ScoreFFromColumns(cols, n, 8192);
  EXPECT_LE(f, 0.0);
  EXPECT_GE(f, -0.5);
}

TEST(ScoreFDp, BitIdenticalToReferenceOnRandomColumns) {
  // Zero-sided and (0,0) columns, odd and even n, and five shapes: a few
  // tiny columns (counts 0–3, so states land exactly on ⌈n/2⌉ and the
  // early exit's boundary is hit); a few small ones; up to 80 uniform
  // columns; and up to 128, or exactly 200, skewed columns (cubed uniforms,
  // like real joints: a few heavy cells and many light ones), whose
  // frontiers reach 10^4 states, so thinning fires even at 8192.
  constexpr uint64_t kMaxCols[] = {12, 12, 80, 128, 200};
  constexpr double kScale[] = {4, 20, 500, 4000, 4000};
  Rng rng(11);
  size_t thinned_cases[std::size(kMaxStatesGrid)] = {};
  for (int trial = 0; trial < 100; ++trial) {
    const int shape = trial % 5;
    const int cols_n = static_cast<int>(
        shape == 4 ? kMaxCols[shape] : 1 + rng.UniformInt(kMaxCols[shape]));
    auto draw = [&] {
      double u = rng.Uniform();
      if (shape >= 3) u = u * u * u;
      return static_cast<int64_t>(kScale[shape] * u);
    };
    std::vector<FColumn> cols(cols_n);
    int64_t n = 0;
    for (FColumn& c : cols) {
      const uint64_t kind = rng.UniformInt(10);
      c.first = kind == 0 || kind == 1 ? 0 : draw();
      c.second = kind == 0 || kind == 2 ? 0 : draw();
      n += c.first + c.second;
    }
    if (n % 2 != trial % 2) {  // alternate odd and even n
      cols[0].first += 1;
      n += 1;
    }
    if (n == 0) continue;
    for (size_t m = 0; m < std::size(kMaxStatesGrid); ++m) {
      const RefResult ref = RefScoreF(cols, n, kMaxStatesGrid[m]);
      const double got = ScoreFFromColumns(cols, n, kMaxStatesGrid[m]);
      EXPECT_TRUE(SameBits(got, ref.f))
          << "trial " << trial << " max_states " << kMaxStatesGrid[m]
          << ": " << got << " vs " << ref.f;
      thinned_cases[m] += ref.thinned;
    }
  }
  // The grid must actually exercise thinning at every positive cap.
  for (size_t m = 1; m < std::size(kMaxStatesGrid); ++m) {
    EXPECT_GT(thinned_cases[m], 0u) << "max_states " << kMaxStatesGrid[m];
  }
}

TEST(ScoreFDp, BitIdenticalToReferenceAtTheHalfBoundary) {
  // States landing exactly on ⌈n/2⌉ in the last column: the early exit
  // returns +0.0 where the final minimum would return −0.0.
  const std::vector<std::pair<std::vector<FColumn>, int64_t>> cases = {
      {{{5, 0}, {0, 5}}, 10},          // a = b = n/2 exactly
      {{{6, 0}, {0, 5}}, 11},          // odd n: b one short of ⌈n/2⌉
      {{{6, 0}, {0, 6}}, 12},
      {{{1, 1}, {4, 0}, {0, 4}}, 10},  // boundary reached via a zero side
      {{{0, 0}, {5, 5}}, 10},          // one column cannot zero both
  };
  for (const auto& [cols, n] : cases) {
    for (size_t max_states : kMaxStatesGrid) {
      EXPECT_TRUE(SameBits(ScoreFFromColumns(cols, n, max_states),
                           RefScoreF(cols, n, max_states).f))
          << "n " << n << " max_states " << max_states;
    }
  }
}

TEST(ScoreFDp, BitIdenticalToReferenceOnNltcsJoints) {
  // fit_binary's shape: 7-attribute NLTCS joints (a child and 6 parents,
  // 64 columns over 21,574 rows).
  const Dataset data = MakeNltcs(5);
  const int64_t n = data.num_rows();
  Rng rng(12);
  std::vector<int> attrs(data.num_attrs());
  for (int a = 0; a < data.num_attrs(); ++a) attrs[a] = a;
  for (int trial = 0; trial < 40; ++trial) {
    rng.Shuffle(attrs);
    std::vector<int> joint(attrs.begin(), attrs.begin() + 7);
    const ProbTable counts = data.JointCounts(joint);  // child = joint.back()
    std::vector<FColumn> cols(counts.size() / 2);
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c] = {static_cast<int64_t>(counts[2 * c]),
                 static_cast<int64_t>(counts[2 * c + 1])};
    }
    for (size_t max_states : kMaxStatesGrid) {
      const RefResult ref = RefScoreF(cols, n, max_states);
      EXPECT_TRUE(SameBits(ScoreFFromColumns(cols, n, max_states), ref.f))
          << "trial " << trial << " max_states " << max_states;
      EXPECT_TRUE(SameBits(ScoreF(counts, n, max_states), ref.f))
          << "trial " << trial << " max_states " << max_states;
    }
  }
}

TEST(ScoreFDp, ForChildReadsCanonicalTableLikeReorder) {
  // A canonical (sorted) table whose child sits anywhere: reading pairs at
  // the child's stride must give exactly ScoreF of the child-last copy.
  const Dataset data = MakeNltcs(6, 5000);
  const int64_t n = data.num_rows();
  const std::vector<int> attrs = {1, 4, 6, 9, 12};
  const ProbTable canonical = data.JointCounts(attrs);
  for (int child : canonical.vars()) {
    std::vector<int> order;
    for (int v : canonical.vars()) {
      if (v != child) order.push_back(v);
    }
    order.push_back(child);
    const ProbTable child_last = canonical.Reorder(order);
    for (size_t max_states : kMaxStatesGrid) {
      EXPECT_TRUE(
          SameBits(ScoreFForChild(canonical, child, n, max_states),
                   ScoreF(child_last, n, max_states)))
          << "child " << child << " max_states " << max_states;
    }
  }
  EXPECT_THROW(ScoreFForChild(canonical, GenVarId(2), n),
               std::invalid_argument);
}

TEST(ScoreFDp, InvalidInputs) {
  std::vector<FColumn> cols = {{1, 1}};
  EXPECT_THROW(ScoreFFromColumns(cols, 0), std::invalid_argument);
  std::vector<FColumn> too_many(30, {1, 1});
  EXPECT_THROW(ScoreFBruteForce(too_many, 60), std::invalid_argument);
}

}  // namespace
}  // namespace privbayes
