// Tests for the persistent ThreadPool and the templated ParallelFor:
// coverage (every index exactly once), determinism across runs and across
// concurrent callers, concurrent jobs, nested-call inlining, and small-n
// fallback.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/thread_pool.h"

namespace privbayes {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(10007);
  pool.ParallelFor(
      hits.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*min_per_thread=*/1);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(
        1000,
        [&](size_t begin, size_t end) {
          int64_t local = 0;
          for (size_t i = begin; i < end; ++i) {
            local += static_cast<int64_t>(i);
          }
          sum.fetch_add(local, std::memory_order_relaxed);
        },
        /*min_per_thread=*/1);
    ASSERT_EQ(sum.load(), 499500);
  }
}

TEST(ThreadPool, IndexPartitionIsDeterministic) {
  // Results written at their own index are identical across runs, across
  // pools of different sizes, and across callers sharing one pool.
  auto run = [](ThreadPool& pool, uint64_t salt) {
    std::vector<uint64_t> out(5000);
    pool.ParallelFor(
        out.size(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) out[i] = i * i + salt;
        },
        /*min_per_thread=*/1);
    return out;
  };
  ThreadPool solo(0), four(4);
  EXPECT_EQ(run(solo, 1), run(four, 1));

  constexpr int kCallers = 4;
  std::vector<std::vector<uint64_t>> expected, got(kCallers);
  for (int c = 0; c < kCallers; ++c) expected.push_back(run(solo, c));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 50; ++round) {
        got[c] = run(four, c);
        if (got[c] != expected[c]) return;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(got[c], expected[c]) << c;
}

TEST(ThreadPool, ConcurrentCallersRunTogether) {
  // Two outer callers each run a job on one pool. Index 0 of each job waits
  // until the other job has started, so the jobs finish only if the pool
  // runs them at the same time. The wait is bounded: a pool that ran one
  // job at a time fails here instead of hanging.
  ThreadPool pool(3);
  std::atomic<bool> started[2] = {false, false};
  std::atomic<bool> saw_other[2] = {false, false};
  auto job = [&](int self) {
    pool.Run(8, 1, [&, self](size_t begin, size_t) {
      started[self].store(true);
      if (begin != 0) return;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!started[1 - self].load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      saw_other[self].store(started[1 - self].load());
    });
  };
  std::thread a(job, 0), b(job, 1);
  a.join();
  b.join();
  EXPECT_TRUE(saw_other[0].load());
  EXPECT_TRUE(saw_other[1].load());
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64 * 64);
  pool.ParallelFor(
      64,
      [&](size_t obegin, size_t oend) {
        for (size_t o = obegin; o < oend; ++o) {
          // The inner call must run inline on this worker — the pool would
          // deadlock (or oversubscribe) if it re-entered the queue.
          ThreadPool::Global().ParallelFor(
              64,
              [&](size_t ibegin, size_t iend) {
                for (size_t i = ibegin; i < iend; ++i) {
                  hits[o * 64 + i].fetch_add(1, std::memory_order_relaxed);
                }
              },
              /*min_per_thread=*/1);
        }
      },
      /*min_per_thread=*/1);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedFromParticipatingCallerDoesNotDeadlock) {
  // The caller thread pulls chunks of its own job; a nested call issued
  // from one of those chunks must run inline instead of posting a job the
  // caller would then wait on from inside its own (regression: deadlock).
  ThreadPool pool(3);
  std::atomic<int> inner{0};
  pool.ParallelFor(
      16,
      [&](size_t obegin, size_t oend) {
        for (size_t o = obegin; o < oend; ++o) {
          pool.ParallelFor(
              8,
              [&](size_t ibegin, size_t iend) {
                inner.fetch_add(static_cast<int>(iend - ibegin),
                                std::memory_order_relaxed);
              },
              /*min_per_thread=*/1);
        }
      },
      /*min_per_thread=*/1);
  EXPECT_EQ(inner.load(), 16 * 8);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  int calls = 0;
  size_t covered = 0;
  pool.ParallelFor(
      100,
      [&](size_t begin, size_t end) {
        ++calls;
        covered += end - begin;
      },
      /*min_per_thread=*/1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  int calls = 0;
  ParallelFor(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SmallRangeStaysOnCaller) {
  // Below 2 * min_per_thread the call must not pay dispatch overhead.
  ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.ParallelFor(
      10, [&](size_t, size_t) { seen = std::this_thread::get_id(); },
      /*min_per_thread=*/64);
  EXPECT_EQ(seen, caller);
}

}  // namespace
}  // namespace privbayes
