// Line-protocol TCP front-end over a ModelRegistry.
//
// One short text line per request, "OK ..." / "ERR <message>" responses.
// Sampled rows stream as binary frames (serve/wire.h) after the OK line;
// everything else is text. The protocol:
//
//   PING                                 -> OK PONG
//   LIST                                 -> OK <k>
//                                           k × "MODEL <name> <attrs> <rows>
//                                                <epsilon>"
//   SAMPLEB <model> <rows> <seed> [col…] -> OK <rows> <cols>
//                                           column-name header line (comma-
//                                           separated), then binary frames:
//                                           schema frame, row frames, end
//                                           frame
//   QUERY <model> <attr> [attr…]         -> OK <vars> <card…>
//                                           cell probabilities, whitespace-
//                                           separated, wrapped across lines
//   HEALTH                               -> OK <READY|DRAINING> <sessions>
//                                           <active_batches> — the poll
//                                           target for boot scripts and
//                                           balancers (no log grepping)
//   METRICS                              -> OK <nbytes>
//                                           <nbytes> bytes of Prometheus
//                                           text exposition (this server's
//                                           registry + the process-global
//                                           one: request counters, stage
//                                           latency histograms, pool/
//                                           marginal-store/sampler
//                                           telemetry). Scrape with
//                                           tools/privbayes_stats.
//   DROP <model>                         -> OK DROPPED <model>
//   CANCEL                               -> (no reply) abort the in-flight
//                                           SAMPLEB on this session: the
//                                           stream ends with a CANCELLED
//                                           error frame and the admission
//                                           slot is released. A CANCEL with
//                                           nothing in flight is ignored.
//                                           Fire-and-forget — it is the one
//                                           command with no response of its
//                                           own.
//   QUIT                                 -> OK BYE (connection closes)
//
// Any other command gets "ERR unknown command '<cmd>'" and the connection
// stays usable.
//
// Failure framing: an error detected before any row bytes went out is a
// plain "ERR <message>" line. An error mid-stream (deadline expiry, an
// exception after the OK line) can no longer use that channel, so the
// stream ends with an error frame instead of the end frame. Either way the
// connection stays usable for the next request.
//
// Threading model (event-driven): a small fixed pool of event-loop threads
// (options.event_loops) owns every session socket through one epoll
// instance each. Sockets are non-blocking; the loops do ALL socket I/O —
// accepting (the listen socket is registered in every loop with
// EPOLLEXCLUSIVE so the kernel spreads wakeups), incremental request-line
// parsing out of per-session read buffers, and draining per-session write
// queues on EPOLLOUT. SAMPLEB/QUERY bodies run on a separate small
// worker pool (options.batch_workers) that never touches a socket: a batch
// renders chunks into its session's bounded write queue
// (options.max_write_buffer) and PARKS when the queue is full, resuming
// when the event loop has drained it below half — true backpressure. A slow
// consumer therefore stalls only its own batch; it never blocks a worker
// thread and never grows server heap beyond the queue bound (plus one
// chunk). No thread is ever created per connection: thousands of idle
// keep-alive sessions cost file descriptors and buffers, not stacks.
//
// Overload shedding: two independent caps refuse work instead of queueing
// it. options.max_sessions bounds live connections — an accept beyond it is
// answered with one "ERR RESOURCE_EXHAUSTED ..." line and closed. options.
// max_active_batches bounds concurrently RUNNING sample batches (see
// AdmissionGate): a SAMPLEB beyond it gets "ERR RESOURCE_EXHAUSTED
// ..." on the still-synchronized connection. Both markers map to the
// client's typed kShedding error, which is retryable with backoff.
//
// Graceful drain: Drain(grace) stops accepting, sends each idle session one
// "ERR SHUTTING_DOWN ..." line (typed kShuttingDown — clients reconnect
// elsewhere / retry later) and closes it, lets every in-flight request
// finish streaming (a drain never tears a response; finishing sessions get
// the same notice), and waits up to `grace` before hard-closing whatever
// remains (aborting their batches so no admission slot leaks). Stop() is
// Drain with zero grace. The daemon wires SIGTERM to Drain so a rolling
// restart loses no accepted work.
//
// Deadlines and idle timeouts are enforced by the event loops' timers, not
// socket options: options.request_deadline (0 = none) bounds each
// SAMPLEB response — expiry between chunks (or while parked on a stuffed
// write queue) aborts the batch with a DEADLINE_EXCEEDED error frame,
// releasing its admission slot. options.idle_timeout (0 = none)
// closes sessions that stay silent between requests, via an LRU scan inside
// the loop (the epoll timeout is the next expiry).
//
// Sampling goes through SamplingService (deterministic chunked streaming:
// the frames for a (model, rows, seed) request are byte-identical on every
// connection); queries through QueryService. The registry may be hot-
// swapped by other threads (or by DROP) while connections stream.

#ifndef PRIVBAYES_SERVE_SERVER_H_
#define PRIVBAYES_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/query_service.h"
#include "serve/sampling_service.h"

namespace privbayes {

struct ServeServerOptions {
  /// Interface to bind; serving is loopback-only by default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Batches that may use the shared thread pool concurrently.
  int max_parallel_batches = 2;
  /// Upper bound on SAMPLEB row counts (one request is one TCP response).
  int64_t max_rows_per_request = int64_t{16} << 20;
  /// Wall-clock budget per SAMPLEB response, checked between chunks (and
  /// while parked on a full write queue); expiry aborts the stream with a
  /// DEADLINE_EXCEEDED error frame instead of sampling into a slow
  /// socket while holding an admission slot. Zero disables the deadline.
  std::chrono::milliseconds request_deadline{0};
  /// A session idle (or stalled mid-request-line) for this long between
  /// requests is dropped by the event loop's idle timer, so hostile or
  /// wedged peers cannot pin server state forever. Zero disables.
  std::chrono::milliseconds idle_timeout{std::chrono::minutes(5)};
  /// Live-connection cap: accepts beyond it are shed with one
  /// RESOURCE_EXHAUSTED line and closed. Zero = unbounded. Sessions are
  /// cheap (no thread each), so this bounds fds and buffers, not stacks.
  int max_sessions = 512;
  /// Concurrently RUNNING sample batches beyond which SAMPLEB requests are
  /// shed with RESOURCE_EXHAUSTED (see AdmissionGate's max_active). Zero =
  /// never shed.
  int max_active_batches = 0;
  /// Slow-request threshold in milliseconds: a traced request whose total
  /// latency crosses it is emitted as one structured stage-timing log line.
  /// 0 disables; -1 (default) reads PRIVBAYES_TRACE_SLOW_MS (0 when unset).
  int64_t trace_slow_ms = -1;
  /// Event-loop threads owning the sockets. Each holds one epoll instance;
  /// accepted sessions stay on the loop that accepted them. 0 picks the
  /// default (2) — loops are I/O-bound, so a couple go a long way.
  int event_loops = 0;
  /// Per-session write-queue bound in bytes (the backpressure high-water
  /// mark). A batch whose session has this much unsent output parks until
  /// the loop drains the queue below half. The queue can overshoot by at
  /// most one rendered chunk. 0 picks the default (4 MiB).
  size_t max_write_buffer = 0;
  /// Worker threads executing SAMPLEB/QUERY bodies (chunk sampling
  /// still fans out through the shared ThreadPool under the AdmissionGate).
  /// 0 picks the default: max(4, max_parallel_batches + 2).
  int batch_workers = 0;
};

/// Point-in-time view of the server's request counters, read from its
/// MetricsRegistry (METRICS exposes the same values as
/// privbayes_serve_*_total series).
struct ServeServerStats {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
  int64_t rows_streamed = 0;
  /// Connections refused by the max_sessions cap.
  uint64_t shed_sessions = 0;
  /// SAMPLEB requests refused by the active-batch cap.
  uint64_t shed_requests = 0;
};

/// Serving lifecycle, exposed through HEALTH.
enum class ServeState {
  kStopped,   ///< not started, or fully stopped
  kReady,     ///< accepting and serving
  kDraining,  ///< finishing in-flight work, accepting nothing new
};

class ServeServer {
 public:
  /// The registry must outlive the server; it may be shared with threads
  /// that fit/load and Put models while the server runs.
  explicit ServeServer(ModelRegistry* registry, ServeServerOptions options = {});
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens and starts the event-loop and worker threads; throws
  /// std::runtime_error when the port cannot be bound.
  void Start();

  /// Graceful shutdown: stop accepting, notify idle sessions with
  /// SHUTTING_DOWN, let in-flight requests finish streaming (bounded by
  /// `grace`), then hard-close stragglers (aborting their batches) and join
  /// every thread. Idempotent.
  void Drain(std::chrono::milliseconds grace);

  /// Immediate shutdown: Drain with zero grace (in-flight streams are torn;
  /// clients see a connection loss and retry). Idempotent; also run by the
  /// destructor.
  void Stop();

  /// The bound port (after Start); useful with options.port = 0.
  int port() const { return port_; }

  ServeServerStats stats() const;
  ServeState state() const { return state_.load(std::memory_order_relaxed); }
  /// Live connections right now (the HEALTH gauge).
  int live_sessions() const {
    return session_count_.load(std::memory_order_relaxed);
  }

  ModelRegistry& registry() { return *registry_; }
  const SamplingService& sampling() const { return sampling_; }

  /// This server's metric registry (request counters + stage latency
  /// histograms + event-loop gauges). Process-wide subsystems report to
  /// MetricsRegistry::Global(); the METRICS command renders both.
  MetricsRegistry& metrics() { return metrics_; }
  /// Ring buffer of recently finished request spans (tests, post-mortems).
  const TraceBuffer& traces() const { return traces_; }

 private:
  struct EventLoop;     // one epoll thread (server.cc)
  struct Session;       // one connection, owned by its loop (server.cc)
  struct BatchContext;  // one in-flight SAMPLEB stream (server.cc)
  class WorkerPool;     // runs request bodies off the loops (server.cc)
  friend class ServeSessionWriter;

  // Event-loop side (all run on the owning loop's thread).
  void LoopMain(EventLoop* loop);
  int LoopTimeoutMs(EventLoop* loop) const;
  void AcceptReady(EventLoop* loop);
  void HandleReadable(EventLoop* loop, const std::shared_ptr<Session>& s);
  void ProcessInput(EventLoop* loop, const std::shared_ptr<Session>& s);
  void HandleSessionLine(EventLoop* loop, const std::shared_ptr<Session>& s,
                         const std::string& line);
  void HandleCancel(EventLoop* loop, const std::shared_ptr<Session>& s);
  void FlushSession(EventLoop* loop, const std::shared_ptr<Session>& s);
  void UpdateInterest(EventLoop* loop, const std::shared_ptr<Session>& s);
  void RequestDone(EventLoop* loop, const std::shared_ptr<Session>& s);
  void SendDrainNotice(EventLoop* loop, const std::shared_ptr<Session>& s);
  void CloseSession(EventLoop* loop, const std::shared_ptr<Session>& s);
  void CloseIfDrained(EventLoop* loop, const std::shared_ptr<Session>& s);
  void DrainDirty(EventLoop* loop);
  void TouchIdle(EventLoop* loop, const std::shared_ptr<Session>& s);
  void ExpireIdle(EventLoop* loop);
  void CheckParkedDeadlines(EventLoop* loop);
  void StopListening(EventLoop* loop);
  void AnnounceDrain(EventLoop* loop);
  void HardCloseAll(EventLoop* loop);

  // Worker side (no socket I/O; output goes through the session write
  // queue).
  void ExecuteRequest(std::shared_ptr<Session> s, std::string line);
  void ExecuteQuery(const std::shared_ptr<Session>& s,
                    std::istringstream& fields);
  void StartSample(const std::shared_ptr<Session>& s,
                   std::istringstream& fields);
  void DriveBatch(std::shared_ptr<Session> s);
  void AbortBatch(const std::shared_ptr<Session>& s, const std::string& msg);
  void FinishBatch(const std::shared_ptr<Session>& s);
  void FinishRequest(const std::shared_ptr<Session>& s);

  // Shared plumbing.
  void EnqueueOutput(const std::shared_ptr<Session>& s, const char* data,
                     size_t len);
  bool EnqueueBatchOutput(const std::shared_ptr<Session>& s, const char* data,
                          size_t len);
  void NotifyLoop(const std::shared_ptr<Session>& s);
  void WakeAllLoops();
  void SubmitWork(std::function<void()> fn);
  void HandleControlLine(const std::string& cmd, std::istringstream& fields,
                         std::ostream& out);
  void HandleQueryBody(std::istringstream& fields, std::ostream& out,
                       Span& span);
  /// Stamps the span's total, records its stage times into the per-command
  /// latency histograms, and rings it through traces_ (slow-logging when
  /// armed).
  void FinishSpan(Span& span);

  /// Stage-split latency histograms for one wire command (owned by
  /// metrics_; raw pointers are stable for the registry's lifetime).
  struct RequestLatency {
    Histogram* total = nullptr;
    Histogram* stage[kNumStages] = {nullptr, nullptr, nullptr, nullptr};
  };
  RequestLatency MakeRequestLatency(const std::string& command);

  ModelRegistry* registry_;
  ServeServerOptions options_;
  SamplingService sampling_;
  QueryService query_;

  // Per-server observability. metrics_ precedes the instrument pointers it
  // owns; traces_ is the span ring (slow threshold set in the constructor).
  MetricsRegistry metrics_;
  TraceBuffer traces_;
  Counter* connections_total_ = nullptr;
  Counter* requests_total_ = nullptr;
  Counter* errors_total_ = nullptr;
  Counter* rows_streamed_total_ = nullptr;
  Counter* shed_sessions_total_ = nullptr;
  Counter* shed_requests_total_ = nullptr;
  Counter* write_stalls_total_ = nullptr;
  Histogram* epoll_wait_seconds_ = nullptr;
  Histogram* epoll_dispatch_seconds_ = nullptr;
  Histogram* write_queue_bytes_ = nullptr;
  RequestLatency lat_sampleb_;
  RequestLatency lat_query_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<ServeState> state_{ServeState::kStopped};
  std::atomic<bool> hard_stop_{false};
  std::atomic<bool> stop_loops_{false};
  std::mutex lifecycle_mu_;  // serializes Start/Drain/Stop

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::unique_ptr<WorkerPool> workers_;
  /// Per-loop live-session counts, sized to the resolved loop count at
  /// construction so the loop_sessions gauge callbacks outlive restarts.
  std::vector<std::unique_ptr<std::atomic<int>>> loop_session_counts_;

  std::atomic<int> session_count_{0};
  mutable std::mutex sessions_mu_;  // pairs with sessions_cv_
  /// Signaled as sessions close and as loops stop listening.
  std::condition_variable sessions_cv_;
  /// Loops still holding listen_fd_ in their epoll set (under sessions_mu_).
  int listening_loops_ = 0;
};

}  // namespace privbayes

#endif  // PRIVBAYES_SERVE_SERVER_H_
