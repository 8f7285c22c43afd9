// Lightweight per-request tracing.
//
// The serve loop mints one Span per wire request and carries a pointer to it
// down through SamplingService → NetworkSampler chunks → the row sink. Each
// layer charges its wall time to one of four fixed stages (parse, admission
// wait, sample compute, wire write) via the StageTimer RAII guard; there is
// no dynamic span tree and no allocation on the request path — a Span is a
// flat struct on the handler's stack.
//
// Finished spans land in a TraceBuffer: a small mutex-guarded ring of the
// most recent spans (for the TRACES test accessor and post-mortem pokes),
// plus a slow-request threshold — spans whose total latency crosses it are
// emitted as one structured WARN log line with the full stage breakdown,
// which is the "where did this slow request spend its time" answer.

#ifndef PRIVBAYES_OBS_TRACE_H_
#define PRIVBAYES_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace privbayes {

/// Fixed per-request stages, in pipeline order. kNumStages is a count, not
/// a stage.
enum class Stage : int {
  kParse = 0,      ///< command-line parse + model lookup
  kAdmission = 1,  ///< waiting on / passing the admission gate
  kSample = 2,     ///< sampler compute incl. decode + projection
  kWrite = 3,      ///< wire serialization + socket writes
};
inline constexpr int kNumStages = 4;

const char* StageName(Stage stage);

/// One wire request's timing record. POD-ish by design: lives on the
/// handler stack, is copied into the ring on Finish.
struct Span {
  uint64_t id = 0;            ///< process-unique, minted per request
  std::string command;        ///< SAMPLEB / QUERY / ...
  std::string model;          ///< model name ("" before parse resolves it)
  uint64_t rows = 0;          ///< rows streamed (filled by the handler)
  uint64_t start_ns = 0;      ///< MonotonicNowNs at mint time
  uint64_t total_ns = 0;      ///< wall time, set by TraceBuffer::Finish
  uint64_t stage_ns[kNumStages] = {0, 0, 0, 0};
  bool ok = true;
  std::string error;          ///< first error detail when !ok

  void Charge(Stage stage, uint64_t ns) {
    stage_ns[static_cast<int>(stage)] += ns;
  }
};

/// RAII stage clock. Null-span tolerant so call sites need no branching:
/// `StageTimer t(req.span, Stage::kSample);` is a no-op when tracing is off.
class StageTimer {
 public:
  StageTimer(Span* span, Stage stage)
      : span_(span), stage_(stage),
        start_(span != nullptr ? MonotonicNowNs() : 0) {}
  ~StageTimer() { Stop(); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Idempotent early stop (charge now, destructor becomes a no-op).
  void Stop() {
    if (span_ == nullptr) return;
    span_->Charge(stage_, MonotonicNowNs() - start_);
    span_ = nullptr;
  }

 private:
  Span* span_;
  Stage stage_;
  uint64_t start_;
};

/// Ring buffer of recently finished spans + slow-span log emission.
/// Finish/Recent take a mutex; that is once per request (not per chunk), off
/// the streaming hot path.
class TraceBuffer {
 public:
  static constexpr size_t kCapacity = 256;

  /// slow_ns <= 0 disables slow-span logging (spans still enter the ring).
  explicit TraceBuffer(int64_t slow_ns = 0) : slow_ns_(slow_ns) {}

  /// Process-unique span id (monotonic across all TraceBuffers).
  static uint64_t MintId();

  /// Stamps total_ns, appends a copy to the ring (evicting the oldest past
  /// kCapacity), and logs a structured stage-timing WARN line when the span
  /// crossed the slow threshold.
  void Finish(Span& span);

  /// Most recent spans, oldest first.
  std::vector<Span> Recent() const;

  void set_slow_ns(int64_t slow_ns) { slow_ns_ = slow_ns; }
  int64_t slow_ns() const { return slow_ns_; }

  /// Count of spans that crossed the slow threshold.
  uint64_t slow_count() const;

 private:
  int64_t slow_ns_;
  mutable std::mutex mu_;
  std::deque<Span> ring_;
  uint64_t slow_count_ = 0;
};

}  // namespace privbayes

#endif  // PRIVBAYES_OBS_TRACE_H_
