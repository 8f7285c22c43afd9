// Dynamic program for the score function F (paper §4.4).
//
// F(X, Π) = −½ · min distance from Pr[X, Π] to a maximum joint distribution
// (Def. 4.2). For binary X, inequality (9) reduces the minimization to
// choosing, for every parent value π, whether its probability mass counts
// toward K0 (cell (0, π) kept non-zero) or K1 (cell (1, π)), and then
//
//   F = −min over reachable (a, b) of (½ − a/n)₊ + (½ − b/n)₊ ,
//
// where a = n·K0, b = n·K1 are integers because every empirical cell is a
// multiple of 1/n. The DP sweeps the parent values, maintaining the set of
// non-dominated reachable (a, b) states (Def. 4.6), for O(n·|dom(Π)|) time.
//
// Exact computation for general X is NP-hard (Thm 5.1); this module supports
// binary X with arbitrary finite parent domains, which covers every place
// the paper uses F.

#ifndef PRIVBAYES_CORE_SCORE_F_DP_H_
#define PRIVBAYES_CORE_SCORE_F_DP_H_

#include <cstdint>
#include <span>
#include <utility>

namespace privbayes {

/// Per-parent-value counts: (count of X = 0, count of X = 1).
using FColumn = std::pair<int64_t, int64_t>;

/// Exact-or-approximate DP for F. `n` is the dataset size (sum of all
/// counts). `max_states` bounds the non-dominated frontier: 0 keeps it
/// exact; a positive value keeps, whenever the frontier has more than
/// `max_states` states, only the max-b state per bucket of a of width
/// g = max(1, ⌊n/max_states⌋). That leaves up to ⌊n/g⌋ + 1 states (fewer
/// than 2·max_states + 1; 10,788 for NLTCS at 8192), is a no-op whenever
/// n < 2·max_states, and under-estimates F by at most |columns| · g / n —
/// e.g. < 2% of F's range for 128 columns at the library default 8192.
/// Each column costs one pass over the frontier with no allocation once the
/// calling thread's buffers have grown. Returns a value in [−0.5, 0].
double ScoreFFromColumns(std::span<const FColumn> columns, int64_t n,
                         size_t max_states = 0);

/// Brute force over all 2^|columns| assignments; reference implementation
/// for tests (requires |columns| <= 24).
double ScoreFBruteForce(std::span<const FColumn> columns, int64_t n);

}  // namespace privbayes

#endif  // PRIVBAYES_CORE_SCORE_F_DP_H_
