#include "core/score_f_dp.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace privbayes {

namespace {

// A reachable (a, b) state. Frontiers are sorted by a strictly ascending,
// which on a non-dominated frontier means b strictly descending.
struct State {
  int64_t a;
  int64_t b;
};

double Objective(const State& s, int64_t n) {
  double half = 0.5;
  double ta = half - static_cast<double>(s.a) / static_cast<double>(n);
  double tb = half - static_cast<double>(s.b) / static_cast<double>(n);
  return (ta > 0 ? ta : 0) + (tb > 0 ? tb : 0);
}

// One DP step for a column with c0 > 0: merges the two shifted copies of
// `src` — (a + c0, b) and (a, b + c1) — and drops dominated states in one
// pass from the largest a down. A state survives iff its b beats every b at
// a larger a; on equal a the larger b comes first, so the other is dropped.
// Survivors are written backwards ending at `dst_end`; returns the first.
State* MergeShifted(const State* src, size_t m, int64_t c0, int64_t c1,
                    State* dst_end) {
  State* w = dst_end;
  int64_t max_b = -1;
  ptrdiff_t i = static_cast<ptrdiff_t>(m) - 1;  // next (a + c0, b) state
  ptrdiff_t j = i;                              // next (a, b + c1) state
  // c0 > 0 puts (src[0].a, ·) below every shifted a, so j outlasts i.
  while (j >= 0) {
    State s = {src[j].a, src[j].b + c1};
    const int64_t ai = i >= 0 ? src[i].a + c0 : -1;
    if (ai > s.a || (ai == s.a && src[i].b >= s.b)) {
      s = {ai, src[i--].b};
    } else {
      --j;
    }
    if (s.b > max_b) *--w = s;
    max_b = std::max(max_b, s.b);
  }
  return w;
}

// Keeps, per bucket of a of width g = max(1, ⌊n/max_states⌋), the bucket's
// max-b state (its first, since b descends as a rises). In place; returns
// the new size. See score_f_dp.h for the bound this gives.
size_t Thin(State* frontier, size_t size, size_t max_states, int64_t n) {
  const int64_t g = std::max<int64_t>(1, n / static_cast<int64_t>(max_states));
  size_t kept = 0;
  for (size_t idx = 0; idx < size; ++idx) {
    if (kept == 0 || frontier[idx].a / g != frontier[kept - 1].a / g) {
      frontier[kept++] = frontier[idx];
    }
  }
  return kept;
}

}  // namespace

double ScoreFFromColumns(std::span<const FColumn> columns, int64_t n,
                         size_t max_states) {
  PB_THROW_IF(n <= 0, "F requires positive n");
  // Ping-pong frontier buffers, reused across calls on this thread (both
  // stay non-empty): the DP allocates only when a frontier outgrows them.
  thread_local std::vector<State> src(1), dst;
  State* frontier = src.data();
  frontier[0] = {0, 0};
  size_t size = 1;
  const int64_t half_up = (n + 1) / 2;  // a >= ⌈n/2⌉ zeroes (½ − a/n)₊
  for (const FColumn& col : columns) {
    PB_CHECK(col.first >= 0 && col.second >= 0);
    if (col.first == 0) {
      // (a, b + c1) dominates (a, b) state for state: a plain shift.
      for (size_t idx = 0; idx < size; ++idx) frontier[idx].b += col.second;
    } else {
      if (dst.size() < 2 * size) dst.resize(2 * size);
      State* end = dst.data() + 2 * size;
      State* first = MergeShifted(frontier, size, col.first, col.second, end);
      size = static_cast<size_t>(end - first);
      frontier = first;
      src.swap(dst);
    }
    if (max_states != 0 && size > max_states) {
      size = Thin(frontier, size, max_states, n);
    }
    // Early exit: some state zeroes both penalty terms. b descends as a
    // rises, so the first state with a >= ⌈n/2⌉ has the largest such b.
    const State* hit = std::partition_point(
        frontier, frontier + size,
        [half_up](const State& s) { return s.a < half_up; });
    if (hit != frontier + size && hit->b >= half_up) return 0.0;
  }
  double best = 1.0;
  for (size_t idx = 0; idx < size; ++idx) {
    best = std::min(best, Objective(frontier[idx], n));
  }
  return -best;
}

double ScoreFBruteForce(std::span<const FColumn> columns, int64_t n) {
  PB_THROW_IF(columns.size() > 24, "brute force limited to 24 columns");
  PB_THROW_IF(n <= 0, "F requires positive n");
  size_t combos = size_t{1} << columns.size();
  double best = 1.0;
  for (size_t mask = 0; mask < combos; ++mask) {
    State s{0, 0};
    for (size_t c = 0; c < columns.size(); ++c) {
      if (mask & (size_t{1} << c)) {
        s.a += columns[c].first;
      } else {
        s.b += columns[c].second;
      }
    }
    best = std::min(best, Objective(s, n));
  }
  return -best;
}

}  // namespace privbayes
