// Overload shedding for sample batches.
//
// An AdmissionGate tracks every ACTIVE batch and can shed: with `max_active`
// set, TryEnter refuses callers outright once that many batches are running
// — the serving layer turns that refusal into an in-band RESOURCE_EXHAUSTED
// reply instead of letting accepted work pile up without bound.
// `max_active` = 0 never sheds.
//
// The gate does not ration the thread pool: ThreadPool runs jobs from
// several callers at once, so every batch fans its shards out through it.
// admitted_total() counts the batches let in. bypassed_total() always reads
// 0, since no batch runs inline; it stays because the end-to-end benchmark
// (e2ebench/) reads it.

#ifndef PRIVBAYES_COMMON_ADMISSION_H_
#define PRIVBAYES_COMMON_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <optional>

namespace privbayes {

class AdmissionGate {
 public:
  /// `max_active` caps concurrent batches; 0 = unbounded (never shed).
  explicit AdmissionGate(int max_active = 0) : max_active_(max_active) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Returned by TryEnter; releases its slot on destruction.
  class Ticket {
   public:
    Ticket(Ticket&& other) noexcept : gate_(other.gate_) {
      other.gate_ = nullptr;
    }
    Ticket& operator=(Ticket&&) = delete;
    ~Ticket() {
      if (gate_ == nullptr) return;
      gate_->active_.fetch_sub(1, std::memory_order_relaxed);
    }

   private:
    friend class AdmissionGate;
    explicit Ticket(AdmissionGate* gate) : gate_(gate) {}
    AdmissionGate* gate_;
  };

  /// Non-blocking. nullopt = shed (the active-batch cap is hit; the caller
  /// must refuse the request, not queue it).
  std::optional<Ticket> TryEnter() {
    int active = active_.load(std::memory_order_relaxed);
    for (;;) {
      if (max_active_ > 0 && active >= max_active_) {
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      if (active_.compare_exchange_weak(active, active + 1,
                                        std::memory_order_relaxed)) {
        admitted_total_.fetch_add(1, std::memory_order_relaxed);
        return Ticket(this);
      }
    }
  }

  /// Batches currently running — the health gauge; zero when the serving
  /// layer is quiescent (no leaked slots).
  int active() const { return active_.load(std::memory_order_relaxed); }

  /// Batches let in.
  uint64_t admitted_total() const {
    return admitted_total_.load(std::memory_order_relaxed);
  }
  /// Always 0: no batch runs inline any more.
  uint64_t bypassed_total() const { return 0; }
  /// Callers refused outright by the active-batch cap.
  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }

  int max_active() const { return max_active_; }

 private:
  const int max_active_;
  std::atomic<int> active_{0};
  std::atomic<uint64_t> admitted_total_{0};
  std::atomic<uint64_t> shed_total_{0};
};

}  // namespace privbayes

#endif  // PRIVBAYES_COMMON_ADMISSION_H_
