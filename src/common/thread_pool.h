// Persistent blocked thread pool behind the library's data parallelism.
//
// The seed's ParallelFor spawned and joined raw std::threads on every call,
// which put several microseconds of thread-creation latency in front of every
// candidate-scoring round. This pool starts hardware_concurrency() − 1
// workers once (the caller participates too) and hands them contiguous index
// blocks through an atomic cursor — no work stealing, no std::function on the
// hot path (calls go through a raw trampoline pointer), no allocation per
// call. Workers are not pinned to CPUs or NUMA nodes; the OS places them.
// Determinism: work is partitioned by index, never by scheduling, so any
// result written at its own index is identical across thread counts.
//
// Several callers may run jobs at once. Each Run posts its job on a list
// of open jobs and works through it; idle workers help the oldest open job
// while fewer than num_threads() threads are working. Workers are woken one
// at a time, each joining worker waking the next while work is unclaimed.
//
// Nested use is safe: a ParallelFor issued from inside another's body —
// whether on a pool worker or on the caller thread participating in the
// outer job — runs inline on that thread, so a nested call can never wait
// on the pool it is running on.

#ifndef PRIVBAYES_COMMON_THREAD_POOL_H_
#define PRIVBAYES_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace privbayes {

class ThreadPool {
 public:
  /// Trampoline signature: fn(ctx, begin, end) over a half-open index range.
  using RangeFn = void (*)(void* ctx, size_t begin, size_t end);

  /// Starts `num_workers` background threads (0 = run everything inline).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads plus the participating caller.
  size_t num_threads() const { return num_threads_; }

  /// The process-wide pool, sized by ThreadCountFromEnv(). Constructed on
  /// first use.
  static ThreadPool& Global();

  /// Threads Global() runs with, the caller included: PRIVBAYES_THREADS, a
  /// whole count in [1, 1024], or the hardware concurrency when it is unset
  /// or empty. Throws std::invalid_argument naming the variable on any other
  /// text ("4x", "0", "-1").
  static size_t ThreadCountFromEnv();

  /// True when the calling thread is already executing parallel work — a
  /// pool worker's job body, or the caller thread while it participates in a
  /// Run it issued. Nested Run/ParallelFor calls check this and execute
  /// inline, which prevents oversubscription.
  static bool InParallelRegion();

  /// Runs fn(ctx, begin, end) over a blocked partition of [0, n): the range
  /// is cut into chunks of `chunk` indices claimed through an atomic cursor
  /// by the calling thread and any workers that join. Blocks until all of
  /// [0, n) is processed. `fn` must be safe to call concurrently on disjoint
  /// ranges and must not throw. Safe to call from several threads at once.
  void Run(size_t n, size_t chunk, RangeFn fn, void* ctx);

  /// Typed Run: invokes fn(begin, end) without std::function indirection.
  /// A chunk of 1 hands out indices one at a time, which balances items
  /// whose costs vary.
  template <typename Fn>
  void Run(size_t n, size_t chunk, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    Run(
        n, chunk,
        [](void* ctx, size_t begin, size_t end) {
          (*static_cast<F*>(ctx))(begin, end);
        },
        const_cast<std::remove_const_t<F>*>(std::addressof(fn)));
  }

  /// Typed front end over one contiguous block per thread. Runs inline when
  /// n is small, the pool is empty, or the caller is already a pool worker.
  template <typename Fn>
  void ParallelFor(size_t n, Fn&& fn, size_t min_per_thread = 64) {
    if (n == 0) return;
    size_t threads = num_threads();
    if (threads <= 1 || n < 2 * min_per_thread || InParallelRegion()) {
      fn(size_t{0}, n);
      return;
    }
    size_t chunks = std::min(threads, n / min_per_thread);
    Run(n, (n + chunks - 1) / chunks, fn);
  }

 private:
  // One Run's job, on the caller's stack; `helpers` and `next` need mu_.
  struct Job {
    RangeFn fn;
    void* ctx;
    size_t n;
    size_t chunk;
    std::atomic<size_t> cursor{0};
    size_t helpers = 0;  // workers inside the job
    Job* next = nullptr;
  };

  void WorkerLoop();
  // Runs the chunk at `begin`, then claims chunks until the job is drained.
  static void Drain(Job& job, size_t begin);
  // Takes `job` off the open list if it is still there (mu_ held).
  void Close(Job* job);
  // A thread is spare and an open job has an unclaimed chunk (mu_ held).
  bool WantsHelper() const;

  // Set before any worker starts: workers read it while workers_ grows.
  const size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // idle workers wait here for a job
  std::condition_variable done_cv_;  // callers wait here for their helpers
  Job* open_ = nullptr;              // open jobs, oldest first
  size_t working_ = 0;               // callers and helpers inside a job
  bool shutdown_ = false;
};

}  // namespace privbayes

#endif  // PRIVBAYES_COMMON_THREAD_POOL_H_
