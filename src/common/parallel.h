// Data-parallel helper used by row-sharded counting, noisy conditionals and
// batch sampling.
//
// ParallelFor is a thin templated front end over the persistent
// ThreadPool::Global() — no thread spawn per call, no std::function
// indirection (the callable is passed through a raw trampoline pointer).
// Determinism: work is partitioned by index, not by scheduling, so any
// result written at its own index is identical across thread counts. Nested
// calls (a ParallelFor issued from inside another's body) run inline.

#ifndef PRIVBAYES_COMMON_PARALLEL_H_
#define PRIVBAYES_COMMON_PARALLEL_H_

#include <cstddef>
#include <utility>

#include "common/thread_pool.h"

namespace privbayes {

/// Runs fn(begin, end) over a partition of [0, n) across the global pool.
/// Falls back to a single inline call for small n. `fn` must be safe to call
/// concurrently on disjoint ranges.
template <typename Fn>
inline void ParallelFor(size_t n, Fn&& fn, size_t min_per_thread = 64) {
  ThreadPool::Global().ParallelFor(n, std::forward<Fn>(fn), min_per_thread);
}

}  // namespace privbayes

#endif  // PRIVBAYES_COMMON_PARALLEL_H_
