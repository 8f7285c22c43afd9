// Process observability: a lock-free registry of named counters, gauges and
// log-bucketed latency histograms, with Prometheus text-format exposition.
//
// Every instrument is wait-free on the record path — relaxed atomics only,
// no mutex, no allocation — so instrumentation can stay always-on inside
// the serving and counting hot loops (the BM_MetricsRecord micro-bench pins
// a histogram record under 20 ns). Registration (name → instrument) takes a
// mutex, but it happens once per call site; hot paths hold the returned
// pointer, which is stable for the registry's lifetime.
//
// Counters are striped across kMetricStripes cache-line-padded atomic slots
// keyed by a per-thread id, so 16 serving threads bumping `requests_total`
// never contend on one cache line. Histograms stripe whole bucket arrays the
// same way; Snapshot() merges the stripes.
//
// Histogram buckets are HDR-style logarithmic: values 0..15 get exact
// buckets, and every power-of-two octave above that is split into 16
// sub-buckets, so a reported percentile (bucket midpoint) is within 1/32 ≈
// 3.2% of the true value — comfortably inside the 5% relative-error budget.
// Values are unsigned integers in caller-chosen units (the serve layer
// records nanoseconds and exposes seconds via the per-metric `scale`);
// values at or above 2^kMaxValueBits land in a +Inf-only overflow bucket.
//
// Two registries matter in practice: MetricsRegistry::Global() holds
// process-wide subsystems (thread pool, marginal store, sampler), and each
// ServeServer owns a private registry for its per-request metrics so two
// servers in one process (as the tests run them) never mix counts. The
// METRICS wire command renders both.

#ifndef PRIVBAYES_OBS_METRICS_H_
#define PRIVBAYES_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace privbayes {

/// Stripes per instrument; power of two. Threads hash onto stripes by a
/// process-unique thread index, so up to kMetricStripes recording threads
/// proceed with zero cache-line sharing.
inline constexpr unsigned kMetricStripes = 16;

/// This thread's stripe index (stable for the thread's lifetime).
unsigned MetricThreadStripe();

/// Monotonic counter, striped across padded atomic slots.
class Counter {
 public:
  void Add(uint64_t n) {
    slots_[MetricThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zeroes every stripe. Not atomic with concurrent Add — test/bench hook.
  void Reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kMetricStripes];
};

/// Point-in-time signed value (queue depths, occupancy). One atomic: gauges
/// move at event granularity, not per-row, so striping buys nothing.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Merged view of a histogram at one instant.
struct HistogramSnapshot {
  uint64_t count = 0;          ///< total records (including overflow)
  uint64_t sum = 0;            ///< sum of recorded raw values
  std::vector<uint64_t> buckets;  ///< per-bucket counts, non-cumulative;
                                  ///< buckets.back() is the overflow bucket

  /// Value at quantile q ∈ [0, 1]: the midpoint of the bucket holding the
  /// ceil(q·count)-th record (exact for values < 16; within 1/32 relative
  /// error above). Returns 0 for an empty histogram; overflow-bucket ranks
  /// report the tracked ceiling.
  double Percentile(double q) const;
};

/// Log-bucketed (HDR-style) histogram of unsigned values.
class Histogram {
 public:
  /// Sub-buckets per power-of-two octave = 2^kSubBucketBits.
  static constexpr int kSubBucketBits = 4;
  /// Values at or above 2^kMaxValueBits (≈18 minutes in nanoseconds) are
  /// counted in `count`/`sum` and the overflow bucket only.
  static constexpr int kMaxValueBits = 40;
  /// Finite buckets: 16 exact small-value buckets + 16 per octave.
  static constexpr int kNumBuckets =
      (1 << kSubBucketBits) +
      (kMaxValueBits - kSubBucketBits) * (1 << kSubBucketBits);

  Histogram();

  /// Wait-free: two relaxed fetch_adds on this thread's stripe.
  void Record(uint64_t value) {
    Stripe& s = stripes_[MetricThreadStripe()];
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Merges every stripe into one snapshot. Safe concurrently with Record;
  /// a snapshot taken mid-record may miss in-flight increments but is exact
  /// once recording threads have quiesced.
  HistogramSnapshot Snapshot() const;

  /// Zeroes every stripe (test/bench hook; not atomic with Record).
  void Reset();

  /// Bucket index for a value: v for v < 16, else octave·16 + sub-bucket;
  /// kNumBuckets for overflow.
  static int BucketIndex(uint64_t v);
  /// Inclusive bucket bounds (finite buckets only).
  static uint64_t BucketLowerBound(int index);
  static uint64_t BucketUpperBound(int index);

 private:
  struct Stripe {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kNumBuckets + 1];  // +1 = overflow
  };
  std::unique_ptr<Stripe[]> stripes_;
};

/// Nanoseconds-precision monotonic clock reading for duration metrics; kept
/// here so every instrumented layer agrees on the clock.
uint64_t MonotonicNowNs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry shared by library subsystems (thread pool,
  /// marginal store, sampler). Server-scoped metrics live in per-server
  /// registries instead, so concurrent servers never mix counts.
  static MetricsRegistry& Global();

  /// Idempotent registration: one (name, labels) pair maps to one
  /// instrument; a second call with the same key returns the same pointer
  /// (and the existing help/scale win). A kind mismatch on an existing key
  /// throws std::invalid_argument. `labels` is the preformatted inner label
  /// list, e.g. `command="SAMPLEB",stage="total"` (empty = unlabeled).
  /// Returned pointers stay valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name, const std::string& labels,
                      const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& labels,
                  const std::string& help);
  /// `scale` multiplies bucket bounds and sums at exposition time (record
  /// nanoseconds, expose seconds with scale = 1e-9).
  Histogram* GetHistogram(const std::string& name, const std::string& labels,
                          const std::string& help, double scale = 1.0);

  /// Scrape-time metric: `fn` is evaluated inside RenderPrometheus. Used
  /// for values owned by another subsystem (admission-gate occupancy, live
  /// session count, cache residency). `as_counter` selects the exposed
  /// TYPE. Re-registering a key replaces its callback.
  void SetCallback(const std::string& name, const std::string& labels,
                   const std::string& help, bool as_counter,
                   std::function<double()> fn);

  /// Prometheus text exposition (one # HELP/# TYPE per family, histogram
  /// `le` buckets cumulative and non-empty-only, closed by +Inf == _count).
  std::string RenderPrometheus() const;

  /// Zeroes every counter/gauge/histogram (callbacks untouched).
  void ResetForTesting();

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Metric {
    std::string name;
    std::string labels;
    std::string help;
    Kind kind;
    bool callback_counter = false;
    double scale = 1.0;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
  };

  Metric* FindOrCreate(const std::string& name, const std::string& labels,
                       const std::string& help, Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Metric>> metrics_;  // registration order
  std::unordered_map<std::string, Metric*> by_key_;
};

}  // namespace privbayes

#endif  // PRIVBAYES_OBS_METRICS_H_
