#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "common/env.h"
#include "obs/metrics.h"

namespace privbayes {

namespace {

// Pool telemetry lives in the global registry: there is one process-wide
// pool, so per-server scoping would be meaningless. Pointers are cached
// once; the instruments themselves are wait-free.
struct PoolMetrics {
  Gauge* waiters;       // callers with a job open on the pool
  Histogram* run_time;  // dispatched Run() wall time, ns (exposed as s)

  PoolMetrics() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    waiters = reg.GetGauge("privbayes_pool_waiters", "",
                           "Callers with a job running on the pool");
    run_time = reg.GetHistogram("privbayes_pool_run_seconds", "",
                                "Dispatched ThreadPool::Run wall time",
                                1e-9);
  }
};

PoolMetrics& GetPoolMetrics() {
  static PoolMetrics* m = new PoolMetrics();
  return *m;
}

// True on a pool worker for its whole life, and on a caller thread while it
// participates in a job it dispatched. Either way, parallel calls from such
// a thread must run inline.
thread_local bool t_in_parallel_region = false;

// PRIVBAYES_THREADS counts the caller too, so it must be at least 1; the
// upper bound only rejects values no host could mean.
constexpr int64_t kMaxThreads = 1024;

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) : num_threads_(num_workers + 1) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

size_t ThreadPool::ThreadCountFromEnv() {
  // EnvInt never returns a negative count, so -1 can only mean "unset".
  const int64_t threads = EnvInt("PRIVBAYES_THREADS", -1);
  if (threads == -1) {
    return std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  PB_THROW_IF(threads < 1 || threads > kMaxThreads,
              "PRIVBAYES_THREADS='" << std::getenv("PRIVBAYES_THREADS")
                                    << "' is not a thread count in [1, "
                                    << kMaxThreads << "]");
  return static_cast<size_t>(threads);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(ThreadCountFromEnv() - 1);
  return *pool;
}

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

void ThreadPool::Run(size_t n, size_t chunk, RangeFn fn, void* ctx) {
  if (n == 0) return;
  if (workers_.empty() || InParallelRegion()) {
    fn(ctx, 0, n);
    return;
  }
  PoolMetrics& metrics = GetPoolMetrics();
  metrics.waiters->Add(1);
  const uint64_t t0 = MonotonicNowNs();
  Job job{fn, ctx, n, std::max<size_t>(1, chunk)};
  size_t begin;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Job** tail = &open_;
    while (*tail != nullptr) tail = &(*tail)->next;
    *tail = &job;
    ++working_;
    begin = job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
    wake = WantsHelper();
  }
  if (wake) work_cv_.notify_one();

  // The caller works through its own job. It is inside a parallel region
  // for the duration: a nested Run from fn executes inline.
  {
    struct RegionGuard {
      ~RegionGuard() { t_in_parallel_region = false; }
    } region_guard;
    t_in_parallel_region = true;
    Drain(job, begin);
  }

  // No helper joins a job once it is off the list, so the caller waits only
  // for the helpers already inside.
  std::unique_lock<std::mutex> lock(mu_);
  Close(&job);
  --working_;
  if (WantsHelper()) work_cv_.notify_one();
  done_cv_.wait(lock, [&job] { return job.helpers == 0; });
  lock.unlock();
  metrics.run_time->Record(MonotonicNowNs() - t0);
  metrics.waiters->Add(-1);
}

void ThreadPool::Drain(Job& job, size_t begin) {
  while (begin < job.n) {
    job.fn(job.ctx, begin, std::min(job.n, begin + job.chunk));
    begin = job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
  }
}

void ThreadPool::Close(Job* job) {
  Job** link = &open_;
  while (*link != nullptr && *link != job) link = &(*link)->next;
  if (*link != nullptr) *link = job->next;
}

bool ThreadPool::WantsHelper() const {
  if (working_ >= num_threads()) return false;
  for (const Job* job = open_; job != nullptr; job = job->next) {
    if (job->cursor.load(std::memory_order_relaxed) < job->n) return true;
  }
  return false;
}

void ThreadPool::WorkerLoop() {
  t_in_parallel_region = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || WantsHelper(); });
    if (shutdown_) return;
    // Join the oldest open job by claiming its next chunk. Run claims its
    // first chunk the same way, so WantsHelper sees only unclaimed work.
    Job* job = open_;
    const size_t begin =
        job->cursor.fetch_add(job->chunk, std::memory_order_relaxed);
    if (begin >= job->n) {
      Close(job);  // drained; the threads inside finish it
      continue;
    }
    ++job->helpers;
    ++working_;
    const bool wake = WantsHelper();
    lock.unlock();
    if (wake) work_cv_.notify_one();
    Drain(*job, begin);
    lock.lock();
    Close(job);
    --working_;
    if (--job->helpers == 0) done_cv_.notify_all();
  }
}

}  // namespace privbayes
