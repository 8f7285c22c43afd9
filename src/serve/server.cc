#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <unordered_map>
#include <utility>

#include "bn/sampling.h"
#include "common/check.h"
#include "common/env.h"
#include "data/marginal_store.h"
#include "serve/row_sink.h"
#include "serve/wire.h"

namespace privbayes {
namespace {

// epoll data tokens. Sessions get unique monotonically increasing tokens
// (never a raw fd): the kernel reuses fd numbers immediately, and a stale
// event carrying a reused fd must not alias a brand-new session.
constexpr uint64_t kTokenListen = 0;
constexpr uint64_t kTokenWake = 1;
constexpr uint64_t kFirstSessionToken = 2;

/// Parsed-but-unserved request lines queued behind an in-flight request.
/// Past this the loop stops reading the socket — a peer that pipelines
/// thousands of SAMPLEBs cannot grow server memory with them.
constexpr size_t kMaxPendingLines = 32;

/// Threads running SAMPLEB/QUERY bodies; each batch's sampling fans out
/// through the shared ThreadPool.
constexpr int kRequestWorkers = 4;

/// Compact the write queue once this much consumed prefix accumulates.
constexpr size_t kCompactThreshold = size_t{1} << 20;

std::string OneLine(const char* text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

// Wire framing around BinaryRowSink: the OK line and the column-name header
// go out only once the request has validated (SamplingService resolves the
// model and projection before calling Begin), so protocol errors never
// interleave with row data. Once Begin has run (started() == true) the text
// ERR channel is off limits — failures must go through Abort's error frame.
class WireSampleSink : public RowSink {
 public:
  WireSampleSink(std::ostream& out, int64_t num_rows,
                 std::optional<std::chrono::steady_clock::time_point> deadline)
      : out_(&out), num_rows_(num_rows), deadline_(deadline), binary_(out) {}

  void Begin(const Schema& schema) override {
    *out_ << "OK " << num_rows_ << " " << schema.num_attrs() << "\n";
    // Column names ride as one comma-separated header line, so the frame
    // layout needs no string table.
    for (int c = 0; c < schema.num_attrs(); ++c) {
      *out_ << (c ? "," : "") << schema.attr(c).name;
    }
    *out_ << '\n';
    started_ = true;
    binary_.Begin(schema);
  }

  void Chunk(const Dataset& rows) override {
    binary_.Chunk(rows);
    rows_sent_ += rows.num_rows();
    out_->flush();  // stream chunk-by-chunk, not batch-at-the-end
    if (!out_->good()) {
      // Client went away mid-stream: abort the batch instead of sampling
      // the remaining (possibly millions of) rows into a dead socket while
      // holding an admission slot.
      throw std::runtime_error("client disconnected mid-stream");
    }
    // Wire-side deadline check between chunks, mirroring the one inside
    // SamplingService: a slow consumer (the write queue absorbed the time,
    // not sampling) still aborts promptly. Skipped once every row is out —
    // a batch that finished streaming is delivered, never torn up.
    if (rows_sent_ < num_rows_ && deadline_ &&
        std::chrono::steady_clock::now() > *deadline_) {
      throw DeadlineExceeded(
          "DEADLINE_EXCEEDED: response deadline expired mid-stream");
    }
  }

  void End() override { binary_.End(); }

  /// True once the OK line went out — the point past which errors must be
  /// reported in-band rather than as an ERR line.
  bool started() const { return started_; }

  /// In-band abort: an error frame. The connection stays synchronized.
  void Abort(const std::string& message) {
    binary_.Abort(message);
    out_->flush();
  }

 private:
  std::ostream* out_;
  int64_t num_rows_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  bool started_ = false;
  int64_t rows_sent_ = 0;
  BinaryRowSink binary_;
};

}  // namespace

// One connection. The owning event loop is the only thread that touches the
// socket, the read buffer and the parse state; the fields under `mu` are the
// loop/worker handoff surface (write queue + request/batch flags). Sessions
// are shared_ptr so a worker finishing a batch after the loop closed the
// socket still has valid state to finalize against.
struct ServeServer::Session
    : public std::enable_shared_from_this<ServeServer::Session> {
  Session(int fd_in, uint64_t token_in, EventLoop* loop_in)
      : fd(fd_in), token(token_in), loop(loop_in) {}

  const int fd;
  const uint64_t token;  // epoll data.u64; unique per loop lifetime
  EventLoop* const loop;

  // ---- loop-owned (no lock: only the owning loop thread) ----
  WireBuffer inbuf;
  std::deque<std::string> pending;  // pipelined lines behind a request
  bool in_request = false;          // dispatched, not yet RequestDone
  bool peer_eof = false;
  bool want_read = true;
  uint32_t armed = 0;  // epoll event mask currently registered
  bool drain_notified = false;
  bool close_after_flush = false;
  std::chrono::steady_clock::time_point last_activity{};
  std::list<uint64_t>::iterator lru_it{};
  bool in_lru = false;

  // ---- shared loop/worker state under mu ----
  std::mutex mu;
  std::string outbuf;  // bounded write queue (high water + one chunk)
  size_t outpos = 0;   // sent prefix, compacted in bulk
  bool closed = false;
  bool request_in_flight = false;  // a worker owns the request body
  bool cancel_requested = false;   // CANCEL seen; driver aborts next step
  bool batch_parked = false;       // driver stopped on a full write queue
  bool batch_scheduled = false;    // a driver task is queued or running
  std::unique_ptr<BatchContext> batch;

  /// True while a dirty notification for this session sits in its loop's
  /// queue — collapses redundant eventfd wakeups from chunk streams.
  std::atomic<bool> notify_queued{false};
};

// Buffered std::ostream that renders into a session's bounded write queue
// instead of a socket, so workers never touch fds. A full queue is the batch
// driver's problem (it parks between chunks); Drain here only fails once the
// session is closed, which WireSampleSink::Chunk surfaces as a dead stream.
class ServeSessionWriter : private std::streambuf, public std::ostream {
 public:
  ServeSessionWriter(ServeServer* server,
                     std::shared_ptr<ServeServer::Session> session)
      : std::ostream(this), server_(server), session_(std::move(session)) {
    setp(buf_, buf_ + sizeof(buf_));
  }

 protected:
  std::streambuf::int_type overflow(std::streambuf::int_type ch) override {
    using Traits = std::streambuf::traits_type;
    if (!Drain()) return Traits::eof();
    if (ch != Traits::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch;
  }
  int sync() override { return Drain() ? 0 : -1; }

 private:
  bool Drain() {
    const size_t n = static_cast<size_t>(pptr() - pbase());
    if (n > 0 && !server_->EnqueueBatchOutput(session_, pbase(), n)) {
      return false;
    }
    setp(buf_, buf_ + sizeof(buf_));
    return true;
  }

  ServeServer* server_;
  std::shared_ptr<ServeServer::Session> session_;
  char buf_[1 << 18];  // stage ~a shard of frames per queue append
};

// One in-flight SAMPLEB stream: the span, the queue-backed writer,
// the wire sink and the chunk cursor (which owns the admission ticket).
// Destroyed by the driver on finish/abort; destroying the cursor releases
// the slot. Member order matters: cursor dies first, then sink, writer.
struct ServeServer::BatchContext {
  BatchContext(ServeServer* server, std::shared_ptr<Session> session,
               int64_t num_rows,
               std::optional<std::chrono::steady_clock::time_point> when)
      : writer(server, std::move(session)),
        sink(writer, num_rows, when),
        deadline(when) {}

  Span span;
  ServeSessionWriter writer;
  WireSampleSink sink;
  std::unique_ptr<ChunkedSampler> cursor;
  /// Immutable copy of the request deadline, readable under Session::mu by
  /// the loop (for parked-batch expiry timers) without touching the cursor.
  const std::optional<std::chrono::steady_clock::time_point> deadline;
};

// One epoll thread. All containers are loop-private except `dirty`, the
// worker→loop notification queue (guarded by dirty_mu, signaled via the
// eventfd).
struct ServeServer::EventLoop {
  int index = 0;
  int epfd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::atomic<int>* session_gauge = nullptr;  // owned by the server
  /// The listen socket is in this loop's epoll set. Cleared by the loop
  /// itself (StopListening) once the server starts draining.
  bool listening = false;
  uint64_t next_token = kFirstSessionToken;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions;
  /// Idle-timeout order: front = least recently active. Only sessions
  /// between requests are listed — a session mid-stream is never idle.
  std::list<uint64_t> lru;
  /// Deadlines of batches parked on a full write queue, so expiry fires
  /// from the loop timer even when the consumer never drains a byte.
  std::map<uint64_t, std::chrono::steady_clock::time_point> parked_deadlines;
  /// Shed connections past the session cap: the RESOURCE_EXHAUSTED line is
  /// written and the write side half-closed, but the fd stays registered
  /// (reads discarded) until the peer closes or a short grace expires — an
  /// immediate close races the client's first request, and the resulting
  /// RST flushes the still-unread shed line out of the peer's receive
  /// queue, turning a typed kShedding into a connection reset.
  std::map<uint64_t, std::pair<int, std::chrono::steady_clock::time_point>>
      shed;
  std::mutex dirty_mu;
  std::vector<std::shared_ptr<Session>> dirty;
};

// Fixed pool running request bodies (parse, admission, chunk pump) off the
// event loops. Bodies stay off the ThreadPool: one running on a pool worker
// would sample inline (a nested parallel call), and a body can park on
// backpressure. Stop() drains the queue before joining: every queued task is
// a request body or a batch-abort, and aborts must run so admission tickets
// release. Submit after Stop runs inline for the same reason.
class ServeServer::WorkerPool {
 public:
  explicit WorkerPool(int threads) {
    for (int i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { Run(); });
    }
  }
  ~WorkerPool() { Stop(); }

  void Submit(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_) {
        queue_.push_back(std::move(fn));
        cv_.notify_one();
        return;
      }
    }
    fn();  // late submission during shutdown: run inline, lose nothing
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      std::function<void()> fn = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      fn();
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

ServeServer::ServeServer(ModelRegistry* registry, ServeServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      sampling_(registry, SamplingService::kDefaultChunkRows,
                options_.max_active_batches),
      query_(registry) {
  // Resolve defaulted knobs once so every consumer sees concrete values.
  if (options_.event_loops <= 0) options_.event_loops = 2;
  if (options_.max_write_buffer == 0) options_.max_write_buffer = size_t{4} << 20;

  connections_total_ = metrics_.GetCounter(
      "privbayes_serve_connections_total", "", "Accepted connections");
  requests_total_ = metrics_.GetCounter("privbayes_serve_requests_total", "",
                                        "Request lines received");
  errors_total_ =
      metrics_.GetCounter("privbayes_serve_errors_total", "",
                          "Requests that failed (ERR line or in-band abort)");
  rows_streamed_total_ =
      metrics_.GetCounter("privbayes_serve_rows_streamed_total", "",
                          "Sample rows streamed to clients");
  shed_sessions_total_ =
      metrics_.GetCounter("privbayes_serve_shed_sessions_total", "",
                          "Connections refused by the session cap");
  shed_requests_total_ =
      metrics_.GetCounter("privbayes_serve_shed_requests_total", "",
                          "Requests refused by the active-batch cap");
  write_stalls_total_ = metrics_.GetCounter(
      "privbayes_serve_write_stalls_total", "",
      "Times a batch parked on a full session write queue");
  epoll_wait_seconds_ = metrics_.GetHistogram(
      "privbayes_serve_epoll_wait_seconds", "",
      "Event-loop time blocked in epoll_wait", 1e-9);
  epoll_dispatch_seconds_ = metrics_.GetHistogram(
      "privbayes_serve_epoll_dispatch_seconds", "",
      "Event-loop time dispatching one wakeup's events", 1e-9);
  write_queue_bytes_ = metrics_.GetHistogram(
      "privbayes_serve_write_queue_bytes", "",
      "Session write-queue depth sampled at each enqueue", 1.0);
  lat_sampleb_ = MakeRequestLatency("SAMPLEB");
  lat_query_ = MakeRequestLatency("QUERY");

  // Per-loop session gauges. The atomics are owned here (not by the loops)
  // and sized once, so the scrape callbacks stay valid across Stop/Start.
  loop_session_counts_.resize(static_cast<size_t>(options_.event_loops));
  for (size_t i = 0; i < loop_session_counts_.size(); ++i) {
    loop_session_counts_[i] = std::make_unique<std::atomic<int>>(0);
    std::atomic<int>* count = loop_session_counts_[i].get();
    metrics_.SetCallback("privbayes_serve_loop_sessions",
                         "loop=\"" + std::to_string(i) + "\"",
                         "Sessions owned by each event loop",
                         /*as_counter=*/false, [count] {
                           return static_cast<double>(
                               count->load(std::memory_order_relaxed));
                         });
  }

  // Values owned elsewhere surface as scrape-time callbacks rather than
  // double-booked counters.
  metrics_.SetCallback(
      "privbayes_serve_live_sessions", "", "Live connections",
      /*as_counter=*/false,
      [this] { return static_cast<double>(live_sessions()); });
  metrics_.SetCallback(
      "privbayes_serve_active_batches", "",
      "Sample batches running right now", false, [this] {
        return static_cast<double>(sampling_.admission().active());
      });
  metrics_.SetCallback(
      "privbayes_serve_pool_admitted_total", "",
      "Sample batches let in by the active-batch cap", true, [this] {
        return static_cast<double>(sampling_.admission().admitted_total());
      });
  metrics_.SetCallback(
      "privbayes_serve_batch_shed_total", "",
      "Batches shed by the active-batch cap", true, [this] {
        return static_cast<double>(sampling_.admission().shed_total());
      });

  // Marginal-store effectiveness is process-wide like the store itself, so
  // it reports to the global registry. SetCallback replaces on re-key, so a
  // second server re-registering the same readers is harmless — every
  // registration reads the same singleton.
  MetricsRegistry& global = MetricsRegistry::Global();
  global.SetCallback("privbayes_marginal_hits_total", "",
                     "MarginalStore cache hits", true, [] {
                       return static_cast<double>(
                           MarginalStore::Instance().stats().hits);
                     });
  global.SetCallback("privbayes_marginal_misses_total", "",
                     "MarginalStore cache misses", true, [] {
                       return static_cast<double>(
                           MarginalStore::Instance().stats().misses);
                     });
  global.SetCallback("privbayes_marginal_evictions_total", "",
                     "MarginalStore LRU evictions", true, [] {
                       return static_cast<double>(
                           MarginalStore::Instance().stats().evictions);
                     });
  global.SetCallback("privbayes_marginal_entries", "",
                     "MarginalStore resident entries", false, [] {
                       return static_cast<double>(
                           MarginalStore::Instance().stats().entries);
                     });
  global.SetCallback("privbayes_marginal_bytes", "",
                     "MarginalStore resident bytes", false, [] {
                       return static_cast<double>(
                           MarginalStore::Instance().stats().bytes);
                     });
  global.SetCallback("privbayes_marginal_skipped_total", "",
                     "MarginalStore requests it could not cache", true, [] {
                       return static_cast<double>(
                           MarginalStore::Instance().stats().skipped);
                     });
  global.SetCallback("privbayes_marginal_cache_enabled", "",
                     "1 when the MarginalStore caches joints, else 0", false,
                     [] {
                       return MarginalStore::Instance().enabled() ? 1.0 : 0.0;
                     });
  global.SetCallback("privbayes_marginal_byte_budget", "",
                     "MarginalStore resident-byte cap", false, [] {
                       return static_cast<double>(
                           MarginalStore::Instance().byte_budget());
                     });
  // Clients replaying archived seeds compare this against the stream version
  // they recorded.
  global.SetCallback("privbayes_sampler_stream_version", "",
                     "Sampled row stream layout version", false, [] {
                       return static_cast<double>(
                           NetworkSampler::kSampleStreamVersion);
                     });

  int64_t slow_ms = options_.trace_slow_ms;
  if (slow_ms < 0) slow_ms = EnvInt("PRIVBAYES_TRACE_SLOW_MS", 0);
  traces_.set_slow_ns(slow_ms * 1'000'000);
}

ServeServer::RequestLatency ServeServer::MakeRequestLatency(
    const std::string& command) {
  RequestLatency lat;
  const std::string base = "command=\"" + command + "\"";
  const char* help = "Request wall time, split by stage";
  lat.total = metrics_.GetHistogram("privbayes_serve_request_seconds",
                                    base + ",stage=\"total\"", help, 1e-9);
  for (int s = 0; s < kNumStages; ++s) {
    lat.stage[s] = metrics_.GetHistogram(
        "privbayes_serve_request_seconds",
        base + ",stage=\"" + StageName(static_cast<Stage>(s)) + "\"", help,
        1e-9);
  }
  return lat;
}

void ServeServer::FinishSpan(Span& span) {
  traces_.Finish(span);  // stamps total_ns; slow-logs when armed
  RequestLatency* lat = nullptr;
  if (span.command == "SAMPLEB") {
    lat = &lat_sampleb_;
  } else if (span.command == "QUERY") {
    lat = &lat_query_;
  }
  if (lat == nullptr) return;
  lat->total->Record(span.total_ns);
  for (int s = 0; s < kNumStages; ++s) {
    lat->stage[s]->Record(span.stage_ns[s]);
  }
}

ServeServer::~ServeServer() { Stop(); }

void ServeServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  PB_THROW_IF(state_.load() != ServeState::kStopped, "server already running");
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad host address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 1024) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot bind " + options_.host + ":" +
                             std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  hard_stop_.store(false);
  stop_loops_.store(false);
  workers_ = std::make_unique<WorkerPool>(kRequestWorkers);

  auto fail = [this](const std::string& what) {
    for (const std::unique_ptr<EventLoop>& loop : loops_) {
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
      if (loop->epfd >= 0) ::close(loop->epfd);
    }
    loops_.clear();
    workers_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(what);
  };

  for (int i = 0; i < options_.event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->index = i;
    loop->session_gauge = loop_session_counts_[static_cast<size_t>(i)].get();
    loop->session_gauge->store(0, std::memory_order_relaxed);
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    loops_.push_back(std::move(loop));
    EventLoop* l = loops_.back().get();
    if (l->epfd < 0 || l->wake_fd < 0) fail("epoll/eventfd setup failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTokenWake;
    if (::epoll_ctl(l->epfd, EPOLL_CTL_ADD, l->wake_fd, &ev) != 0) {
      fail("epoll_ctl(wake) failed");
    }
    // The listen socket is registered in EVERY loop: EPOLLEXCLUSIVE makes
    // the kernel wake one loop per connection burst instead of all of them.
    // Older kernels without the flag still work — every loop wakes and all
    // but one see EAGAIN from accept4.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = kTokenListen;
    if (::epoll_ctl(l->epfd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      ev.events = EPOLLIN;
      if (::epoll_ctl(l->epfd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
        fail("epoll_ctl(listen) failed");
      }
    }
    l->listening = true;
  }
  listening_loops_ = options_.event_loops;

  state_.store(ServeState::kReady);
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    loop->thread = std::thread(&ServeServer::LoopMain, this, loop.get());
  }
}

void ServeServer::Drain(std::chrono::milliseconds grace) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (loops_.empty() && listen_fd_ < 0) return;  // idempotent

  // 1. Stop taking new work. The state flip makes every loop drop the
  // listen socket from its epoll set (and start sending idle sessions the
  // SHUTTING_DOWN notice). The socket is closed only after the last loop
  // has let go of it: a loop may be inside accept4 right now, and closing
  // under it would let it accept on a recycled fd number.
  state_.store(ServeState::kDraining);
  WakeAllLoops();
  {
    std::unique_lock<std::mutex> lock(sessions_mu_);
    sessions_cv_.wait(lock, [&] { return listening_loops_ == 0; });
  }
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Bounded wait for in-flight requests to finish streaming. Sessions
  // close themselves after the drain notice, so the count walks to zero.
  if (grace.count() > 0) {
    std::unique_lock<std::mutex> lock(sessions_mu_);
    sessions_cv_.wait_for(lock, grace, [&] {
      return session_count_.load(std::memory_order_acquire) == 0;
    });
  }

  // 3. Hard-close stragglers. Each close detaches any parked batch driver
  // as a worker task that aborts and releases its admission slot. The loops
  // stay responsive throughout, so this wait terminates.
  hard_stop_.store(true);
  WakeAllLoops();
  {
    std::unique_lock<std::mutex> lock(sessions_mu_);
    sessions_cv_.wait(lock, [&] {
      return session_count_.load(std::memory_order_acquire) == 0;
    });
  }

  // 4. Drain the worker pool BEFORE tearing down the loops: queued abort
  // tasks must run (they release tickets and may ring eventfds). Then stop
  // and join the loops and release their fds.
  workers_->Stop();
  stop_loops_.store(true);
  WakeAllLoops();
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    ::close(loop->wake_fd);
    ::close(loop->epfd);
  }
  loops_.clear();
  workers_.reset();
  hard_stop_.store(false);
  stop_loops_.store(false);
  state_.store(ServeState::kStopped);
}

void ServeServer::Stop() { Drain(std::chrono::milliseconds{0}); }

ServeServerStats ServeServer::stats() const {
  ServeServerStats out;
  out.connections = connections_total_->Value();
  out.requests = requests_total_->Value();
  out.errors = errors_total_->Value();
  out.rows_streamed = static_cast<int64_t>(rows_streamed_total_->Value());
  out.shed_sessions = shed_sessions_total_->Value();
  out.shed_requests = shed_requests_total_->Value();
  return out;
}

// ---------------------------------------------------------------------------
// Event-loop side. Everything below LoopMain runs on the owning loop thread.

void ServeServer::LoopMain(EventLoop* loop) {
  epoll_event events[128];
  for (;;) {
    const int timeout_ms = LoopTimeoutMs(loop);
    const uint64_t wait_start = MonotonicNowNs();
    const int n = ::epoll_wait(loop->epfd, events,
                               static_cast<int>(std::size(events)),
                               timeout_ms);
    const uint64_t dispatch_start = MonotonicNowNs();
    epoll_wait_seconds_->Record(
        static_cast<int64_t>(dispatch_start - wait_start));
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (token == kTokenListen) {
        if (state_.load(std::memory_order_acquire) == ServeState::kReady) {
          AcceptReady(loop);
        }
        continue;
      }
      if (token == kTokenWake) {
        uint64_t drained = 0;
        while (::read(loop->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto shed_it = loop->shed.find(token);
      if (shed_it != loop->shed.end()) {
        // Parked shed connection: discard whatever the peer sent; close on
        // EOF/error (the peer has either read the shed line or died).
        char sink[4096];
        ssize_t n;
        while ((n = ::recv(shed_it->second.first, sink, sizeof(sink), 0)) >
               0) {
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          ::close(shed_it->second.first);
          loop->shed.erase(shed_it);
        }
        continue;
      }
      auto it = loop->sessions.find(token);
      if (it == loop->sessions.end()) continue;  // closed earlier this batch
      std::shared_ptr<Session> s = it->second;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        CloseSession(loop, s);
        continue;
      }
      if (ev & (EPOLLIN | EPOLLRDHUP)) HandleReadable(loop, s);
      if ((ev & EPOLLOUT) && loop->sessions.count(token) != 0) {
        FlushSession(loop, s);
      }
    }
    DrainDirty(loop);
    if (state_.load(std::memory_order_acquire) == ServeState::kDraining) {
      StopListening(loop);
      AnnounceDrain(loop);
    }
    if (hard_stop_.load(std::memory_order_acquire)) HardCloseAll(loop);
    ExpireIdle(loop);
    CheckParkedDeadlines(loop);
    if (!loop->shed.empty()) {
      // Grace sweep for parked shed fds whose peer never closed (the 1 s
      // heartbeat bounds how late this fires).
      const auto now = std::chrono::steady_clock::now();
      for (auto it = loop->shed.begin(); it != loop->shed.end();) {
        if (now >= it->second.second) {
          ::close(it->second.first);
          it = loop->shed.erase(it);
        } else {
          ++it;
        }
      }
    }
    epoll_dispatch_seconds_->Record(
        static_cast<int64_t>(MonotonicNowNs() - dispatch_start));
    if (stop_loops_.load(std::memory_order_acquire)) break;
  }
  for (const auto& [token, entry] : loop->shed) ::close(entry.first);
  loop->shed.clear();
}

int ServeServer::LoopTimeoutMs(EventLoop* loop) const {
  // Next timer to fire: the oldest idle session's expiry or the earliest
  // parked-batch deadline; 1 s heartbeat otherwise (drain/stop flags are
  // re-checked every wakeup).
  auto next = std::chrono::steady_clock::time_point::max();
  if (options_.idle_timeout.count() > 0 && !loop->lru.empty()) {
    auto it = loop->sessions.find(loop->lru.front());
    if (it != loop->sessions.end()) {
      next = std::min(next, it->second->last_activity + options_.idle_timeout);
    }
  }
  for (const auto& [token, deadline] : loop->parked_deadlines) {
    next = std::min(next, deadline);
  }
  if (next == std::chrono::steady_clock::time_point::max()) return 1000;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      next - std::chrono::steady_clock::now())
                      .count() +
                  1;
  return static_cast<int>(std::clamp<long long>(ms, 0, 1000));
}

void ServeServer::AcceptReady(EventLoop* loop) {
  // Bursts are bounded so one loop can't monopolize its thread accepting
  // while its existing sessions starve; leftover connections re-arm EPOLLIN.
  for (int burst = 0; burst < 256; ++burst) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (another loop won the wakeup) or shutdown
    // The stream ends with small flushed writes (the end frame);
    // without TCP_NODELAY, Nagle + delayed ACK can park each response's
    // tail for ~40 ms — dwarfing the transfer itself for binary batches.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Session-cap shedding: beyond max_sessions the connection gets one
    // RESOURCE_EXHAUSTED line and no session state. The client reads it as
    // the response to whatever it sends first, maps it to kShedding, and
    // backs off — bounded state beats an unbounded accept queue.
    const int live = session_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (options_.max_sessions > 0 && live > options_.max_sessions) {
      session_count_.fetch_sub(1, std::memory_order_acq_rel);
      // Counted before the reply goes out: a client that has read the shed
      // line must already see it in METRICS.
      shed_sessions_total_->Inc();
      const std::string msg = "ERR RESOURCE_EXHAUSTED: session cap " +
                              std::to_string(options_.max_sessions) +
                              " reached; retry with backoff\n";
      WriteWireBytes(fd, msg.data(), msg.size());
      // Half-close and park (see EventLoop::shed) so the line survives
      // the race with the client's first request.
      ::shutdown(fd, SHUT_WR);
      const uint64_t token = loop->next_token++;
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.u64 = token;
      if (::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, fd, &ev) == 0) {
        loop->shed[token] = {fd, std::chrono::steady_clock::now() +
                                     std::chrono::seconds(2)};
      } else {
        ::close(fd);
      }
      continue;
    }

    connections_total_->Inc();
    const uint64_t token = loop->next_token++;
    auto s = std::make_shared<Session>(fd, token, loop);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = token;
    if (::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      session_count_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    s->armed = ev.events;
    loop->sessions.emplace(token, s);
    loop->session_gauge->fetch_add(1, std::memory_order_relaxed);
    TouchIdle(loop, s);
  }
}

void ServeServer::HandleReadable(EventLoop* loop,
                                 const std::shared_ptr<Session>& s) {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = FaultyRecv(s->fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseSession(loop, s);
      return;
    }
    if (n == 0) {
      s->peer_eof = true;
      break;
    }
    TouchIdle(loop, s);
    s->inbuf.data.append(chunk, static_cast<size_t>(n));
    ProcessInput(loop, s);
    if (loop->sessions.count(s->token) == 0) return;  // closed while parsing
    if (!s->want_read) break;  // backpressure: stop pulling bytes
  }
  ProcessInput(loop, s);
  if (loop->sessions.count(s->token) == 0) return;
  CloseIfDrained(loop, s);
}

void ServeServer::ProcessInput(EventLoop* loop,
                               const std::shared_ptr<Session>& s) {
  std::string line;
  for (;;) {
    if (s->close_after_flush) return;  // QUIT/drain already decided the end
    if (s->pending.size() >= kMaxPendingLines) {
      // Pipelining cap: stop parsing (and reading) until the worker drains
      // the backlog; RequestDone re-enables the read side.
      s->want_read = false;
      UpdateInterest(loop, s);
      return;
    }
    const WireExtract got = ExtractWireLine(s->inbuf, line);
    if (got == WireExtract::kOverflow) {
      CloseSession(loop, s);  // hostile over-long line
      return;
    }
    if (got == WireExtract::kNeedMore) return;
    if (line.empty()) continue;
    if (line == "CANCEL") {
      // CANCEL jumps the pipeline queue — that is its whole point: the
      // socket stays readable mid-stream precisely so this line can arrive
      // while a batch is streaming. No reply, not counted as a request.
      HandleCancel(loop, s);
      continue;
    }
    if (s->in_request) {
      s->pending.push_back(std::move(line));
      continue;
    }
    HandleSessionLine(loop, s, line);
    if (loop->sessions.count(s->token) == 0) return;
  }
}

void ServeServer::HandleSessionLine(EventLoop* loop,
                                    const std::shared_ptr<Session>& s,
                                    const std::string& line) {
  requests_total_->Inc();
  std::istringstream fields(line);
  std::string cmd;
  fields >> cmd;

  if (cmd == "QUIT") {
    EnqueueOutput(s, "OK BYE\n", 7);
    s->close_after_flush = true;
    s->drain_notified = true;  // no SHUTTING_DOWN after BYE
    s->want_read = false;
    FlushSession(loop, s);
    return;
  }

  if (cmd == "SAMPLEB" || cmd == "QUERY") {
    s->in_request = true;
    // In-request sessions leave the idle LRU: a long stream must not be
    // reaped as idle while the consumer is happily reading it.
    if (s->in_lru) {
      loop->lru.erase(s->lru_it);
      s->in_lru = false;
    }
    {
      std::lock_guard<std::mutex> lock(s->mu);
      s->request_in_flight = true;
      s->cancel_requested = false;
    }
    std::shared_ptr<Session> owned = s;
    std::string copy = line;
    SubmitWork([this, owned = std::move(owned),
                copy = std::move(copy)]() mutable {
      ExecuteRequest(std::move(owned), std::move(copy));
    });
    return;
  }

  // Control commands are cheap and synchronous — answered on the loop.
  std::ostringstream reply;
  try {
    HandleControlLine(cmd, fields, reply);
  } catch (const ResourceExhausted& e) {
    shed_requests_total_->Inc();
    reply.str(std::string());
    reply << "ERR " << OneLine(e.what()) << "\n";
  } catch (const std::exception& e) {
    errors_total_->Inc();
    reply.str(std::string());
    reply << "ERR " << OneLine(e.what()) << "\n";
  }
  const std::string text = reply.str();
  EnqueueOutput(s, text.data(), text.size());
  FlushSession(loop, s);
}

void ServeServer::HandleCancel(EventLoop* loop,
                               const std::shared_ptr<Session>& s) {
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (!s->request_in_flight) return;  // nothing in flight: ignored
    s->cancel_requested = true;
    // A parked driver would otherwise wait for queue drain that a stalled
    // consumer may never provide; resume it so it can abort immediately.
    if (s->batch && s->batch_parked && !s->batch_scheduled) {
      s->batch_parked = false;
      s->batch_scheduled = true;
      resume = true;
    }
  }
  if (resume) {
    loop->parked_deadlines.erase(s->token);
    std::shared_ptr<Session> owned = s;
    SubmitWork([this, owned = std::move(owned)]() mutable {
      DriveBatch(std::move(owned));
    });
  }
}

void ServeServer::FlushSession(EventLoop* loop,
                               const std::shared_ptr<Session>& s) {
  bool do_close = false;
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->closed) return;
    while (s->outpos < s->outbuf.size()) {
      const ssize_t n = FaultySend(s->fd, s->outbuf.data() + s->outpos,
                                   s->outbuf.size() - s->outpos);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        do_close = true;  // peer gone; the driver aborts via `closed`
        break;
      }
      s->outpos += static_cast<size_t>(n);
    }
    if (s->outpos >= s->outbuf.size()) {
      s->outbuf.clear();
      s->outpos = 0;
      if (s->close_after_flush) do_close = true;
    } else if (s->outpos > kCompactThreshold) {
      s->outbuf.erase(0, s->outpos);
      s->outpos = 0;
    }
    // Low-water resume: the parked driver restarts once the queue is below
    // half the bound, not the instant a byte drains — hysteresis keeps a
    // slow consumer from thrashing park/unpark per chunk.
    if (!do_close && s->batch_parked && !s->batch_scheduled &&
        s->outbuf.size() - s->outpos <= options_.max_write_buffer / 2) {
      s->batch_parked = false;
      s->batch_scheduled = true;
      resume = true;
    }
  }
  if (do_close) {
    CloseSession(loop, s);
    return;
  }
  UpdateInterest(loop, s);
  if (resume) {
    loop->parked_deadlines.erase(s->token);
    std::shared_ptr<Session> owned = s;
    SubmitWork([this, owned = std::move(owned)]() mutable {
      DriveBatch(std::move(owned));
    });
  }
}

void ServeServer::UpdateInterest(EventLoop* loop,
                                 const std::shared_ptr<Session>& s) {
  uint32_t want = 0;
  if (s->want_read) want |= EPOLLIN | EPOLLRDHUP;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->closed) return;
    if (s->outpos < s->outbuf.size()) want |= EPOLLOUT;
  }
  if (want == s->armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = s->token;
  if (::epoll_ctl(loop->epfd, EPOLL_CTL_MOD, s->fd, &ev) == 0) {
    s->armed = want;
  }
}

void ServeServer::DrainDirty(EventLoop* loop) {
  std::vector<std::shared_ptr<Session>> dirty;
  {
    std::lock_guard<std::mutex> lock(loop->dirty_mu);
    dirty.swap(loop->dirty);
  }
  for (const std::shared_ptr<Session>& s : dirty) {
    s->notify_queued.store(false, std::memory_order_release);
    if (loop->sessions.count(s->token) == 0) continue;  // already closed
    FlushSession(loop, s);
    if (loop->sessions.count(s->token) == 0) continue;
    bool finished = false;
    bool parked = false;
    std::optional<std::chrono::steady_clock::time_point> park_deadline;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      finished = s->in_request && !s->request_in_flight;
      parked = s->batch_parked;
      if (parked && s->batch) park_deadline = s->batch->deadline;
    }
    if (parked && park_deadline) {
      loop->parked_deadlines[s->token] = *park_deadline;
    } else if (!parked) {
      loop->parked_deadlines.erase(s->token);
    }
    if (finished) RequestDone(loop, s);
  }
}

void ServeServer::RequestDone(EventLoop* loop,
                              const std::shared_ptr<Session>& s) {
  s->in_request = false;
  loop->parked_deadlines.erase(s->token);
  TouchIdle(loop, s);
  if (state_.load(std::memory_order_acquire) != ServeState::kReady) {
    // Finishing sessions get the same drain notice as idle ones, after
    // their response has fully streamed.
    SendDrainNotice(loop, s);
    return;
  }
  // Pipelined lines queued behind the finished request run now, in order.
  while (!s->pending.empty() && !s->in_request && !s->close_after_flush) {
    std::string line = std::move(s->pending.front());
    s->pending.pop_front();
    HandleSessionLine(loop, s, line);
    if (loop->sessions.count(s->token) == 0) return;
  }
  if (!s->want_read && !s->close_after_flush &&
      s->pending.size() < kMaxPendingLines) {
    s->want_read = true;
    UpdateInterest(loop, s);
    ProcessInput(loop, s);  // bytes may have been buffered while read-gated
    if (loop->sessions.count(s->token) == 0) return;
  }
  CloseIfDrained(loop, s);
}

void ServeServer::SendDrainNotice(EventLoop* loop,
                                  const std::shared_ptr<Session>& s) {
  if (s->drain_notified) return;
  s->drain_notified = true;
  static const char kNotice[] =
      "ERR SHUTTING_DOWN: server draining; reconnect and retry\n";
  EnqueueOutput(s, kNotice, sizeof(kNotice) - 1);
  s->close_after_flush = true;
  s->want_read = false;
  FlushSession(loop, s);
}

void ServeServer::StopListening(EventLoop* loop) {
  if (!loop->listening) return;
  loop->listening = false;
  ::epoll_ctl(loop->epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    --listening_loops_;
  }
  sessions_cv_.notify_all();
}

void ServeServer::AnnounceDrain(EventLoop* loop) {
  // Collect first: the notice can complete a flush and close the session,
  // which mutates the map being walked.
  std::vector<std::shared_ptr<Session>> idle;
  for (const auto& [token, s] : loop->sessions) {
    if (!s->in_request && !s->drain_notified) idle.push_back(s);
  }
  for (const std::shared_ptr<Session>& s : idle) SendDrainNotice(loop, s);
}

void ServeServer::HardCloseAll(EventLoop* loop) {
  std::vector<std::shared_ptr<Session>> all;
  all.reserve(loop->sessions.size());
  for (const auto& [token, s] : loop->sessions) all.push_back(s);
  for (const std::shared_ptr<Session>& s : all) CloseSession(loop, s);
}

void ServeServer::CloseSession(EventLoop* loop,
                               const std::shared_ptr<Session>& s) {
  if (loop->sessions.erase(s->token) == 0) return;  // double-close guard
  loop->parked_deadlines.erase(s->token);
  if (s->in_lru) {
    loop->lru.erase(s->lru_it);
    s->in_lru = false;
  }
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->closed = true;
    // A parked driver would never resume (its queue will never drain);
    // reschedule it so it observes `closed`, aborts, and frees the slot.
    if (s->batch && s->batch_parked && !s->batch_scheduled) {
      s->batch_parked = false;
      s->batch_scheduled = true;
      resume = true;
    }
  }
  ::epoll_ctl(loop->epfd, EPOLL_CTL_DEL, s->fd, nullptr);
  ::close(s->fd);
  loop->session_gauge->fetch_sub(1, std::memory_order_relaxed);
  session_count_.fetch_sub(1, std::memory_order_acq_rel);
  if (resume) {
    std::shared_ptr<Session> owned = s;
    SubmitWork([this, owned = std::move(owned)]() mutable {
      DriveBatch(std::move(owned));
    });
  }
  // Empty critical section: Drain's predicate re-reads session_count_, and
  // the lock pairing guarantees it cannot miss this update + notify.
  { std::lock_guard<std::mutex> lock(sessions_mu_); }
  sessions_cv_.notify_all();
}

void ServeServer::CloseIfDrained(EventLoop* loop,
                                 const std::shared_ptr<Session>& s) {
  if (!s->peer_eof || s->in_request || !s->pending.empty()) return;
  s->close_after_flush = true;
  s->want_read = false;
  FlushSession(loop, s);
}

void ServeServer::TouchIdle(EventLoop* loop,
                            const std::shared_ptr<Session>& s) {
  if (options_.idle_timeout.count() <= 0) return;
  s->last_activity = std::chrono::steady_clock::now();
  if (s->in_lru) loop->lru.erase(s->lru_it);
  loop->lru.push_back(s->token);
  s->lru_it = std::prev(loop->lru.end());
  s->in_lru = true;
}

void ServeServer::ExpireIdle(EventLoop* loop) {
  if (options_.idle_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  while (!loop->lru.empty()) {
    auto it = loop->sessions.find(loop->lru.front());
    if (it == loop->sessions.end()) {
      loop->lru.pop_front();  // defensive: closed without LRU removal
      continue;
    }
    std::shared_ptr<Session> s = it->second;
    if (now - s->last_activity < options_.idle_timeout) break;
    // Same surface SO_RCVTIMEO presented in the thread-per-session server:
    // the connection silently drops.
    CloseSession(loop, s);
  }
}

void ServeServer::CheckParkedDeadlines(EventLoop* loop) {
  if (loop->parked_deadlines.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<uint64_t> expired;
  for (const auto& [token, deadline] : loop->parked_deadlines) {
    if (now > deadline) expired.push_back(token);
  }
  for (uint64_t token : expired) {
    loop->parked_deadlines.erase(token);
    auto it = loop->sessions.find(token);
    if (it == loop->sessions.end()) continue;
    const std::shared_ptr<Session>& s = it->second;
    bool resume = false;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->batch && s->batch_parked && !s->batch_scheduled) {
        s->batch_parked = false;
        s->batch_scheduled = true;
        resume = true;
      }
    }
    if (resume) {
      // The driver re-checks the deadline and aborts with the in-band
      // DEADLINE_EXCEEDED marker — even though the consumer never drained.
      std::shared_ptr<Session> owned = s;
      SubmitWork([this, owned = std::move(owned)]() mutable {
        DriveBatch(std::move(owned));
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Worker side. No socket I/O here — output goes through the session write
// queue; the loop is poked via its eventfd.

void ServeServer::ExecuteRequest(std::shared_ptr<Session> s,
                                 std::string line) {
  std::istringstream fields(line);
  std::string cmd;
  fields >> cmd;
  if (cmd == "QUERY") {
    ExecuteQuery(s, fields);
  } else {
    StartSample(s, fields);
  }
}

void ServeServer::ExecuteQuery(const std::shared_ptr<Session>& s,
                               std::istringstream& fields) {
  Span span;
  span.id = TraceBuffer::MintId();
  span.command = "QUERY";
  span.start_ns = MonotonicNowNs();
  std::ostringstream reply;
  try {
    HandleQueryBody(fields, reply, span);
  } catch (const std::exception& e) {
    span.ok = false;
    if (span.error.empty()) span.error = OneLine(e.what());
    FinishSpan(span);
    errors_total_->Inc();
    const std::string text = "ERR " + OneLine(e.what()) + "\n";
    EnqueueBatchOutput(s, text.data(), text.size());
    FinishRequest(s);
    return;
  }
  FinishSpan(span);
  const std::string text = reply.str();
  EnqueueBatchOutput(s, text.data(), text.size());
  FinishRequest(s);
}

void ServeServer::StartSample(const std::shared_ptr<Session>& s,
                              std::istringstream& fields) {
  Span span;
  span.id = TraceBuffer::MintId();
  span.command = "SAMPLEB";
  span.start_ns = MonotonicNowNs();
  SampleRequest request;
  try {
    StageTimer parse_timer(&span, Stage::kParse);
    fields >> request.model >> request.num_rows >> request.seed;
    PB_THROW_IF(!fields, "usage: SAMPLEB <model> <rows> <seed> [col ...]");
    int col = 0;
    while (fields >> col) request.columns.push_back(col);
    // Extraction must have stopped at end-of-line, not at a non-integer
    // token — a typo'd projection must ERR, not silently serve a prefix.
    PB_THROW_IF(!fields.eof(),
                "usage: SAMPLEB <model> <rows> <seed> [col ...]");
    PB_THROW_IF(request.num_rows < 0 ||
                    request.num_rows > options_.max_rows_per_request,
                "row count out of range [0, "
                    << options_.max_rows_per_request << "]");
  } catch (const std::exception& e) {
    span.ok = false;
    span.error = OneLine(e.what());
    FinishSpan(span);
    errors_total_->Inc();
    const std::string text = "ERR " + OneLine(e.what()) + "\n";
    EnqueueBatchOutput(s, text.data(), text.size());
    FinishRequest(s);
    return;
  }
  span.model = request.model;
  if (options_.request_deadline.count() > 0) {
    request.deadline =
        std::chrono::steady_clock::now() + options_.request_deadline;
  }

  bool early_closed = false;
  bool early_cancel = false;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    early_closed = s->closed;
    early_cancel = !early_closed && s->cancel_requested;
  }
  if (early_closed) {
    // Session died between dispatch and execution; nothing to report to.
    span.ok = false;
    span.error = "client disconnected";
    FinishSpan(span);
    FinishRequest(s);
    return;
  }
  if (early_cancel) {
    // CANCEL beat the worker to the request: no batch ever starts, so the
    // plain ERR channel is still clean.
    span.ok = false;
    span.error = "CANCELLED: request cancelled by client";
    FinishSpan(span);
    errors_total_->Inc();
    static const char kText[] = "ERR CANCELLED: request cancelled by client\n";
    EnqueueBatchOutput(s, kText, sizeof(kText) - 1);
    FinishRequest(s);
    return;
  }

  auto b = std::make_unique<BatchContext>(this, s, request.num_rows,
                                          request.deadline);
  b->span = std::move(span);
  request.span = &b->span;
  try {
    b->cursor = sampling_.StartChunked(request);
  } catch (const ResourceExhausted& e) {
    shed_requests_total_->Inc();
    b->span.ok = false;
    b->span.error = OneLine(e.what());
    FinishSpan(b->span);
    const std::string text = "ERR " + OneLine(e.what()) + "\n";
    EnqueueBatchOutput(s, text.data(), text.size());
    FinishRequest(s);
    return;
  } catch (const std::exception& e) {
    errors_total_->Inc();
    b->span.ok = false;
    b->span.error = OneLine(e.what());
    FinishSpan(b->span);
    const std::string text = "ERR " + OneLine(e.what()) + "\n";
    EnqueueBatchOutput(s, text.data(), text.size());
    FinishRequest(s);
    return;
  }

  bool closed_now = false;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->closed) {
      closed_now = true;
    } else {
      s->batch = std::move(b);
      s->batch_scheduled = true;
    }
  }
  if (closed_now) {
    // Admitted, then the session died: drop the batch — destroying the
    // cursor releases the admission slot — and finish the span quietly.
    b->span.ok = false;
    b->span.error = "client disconnected";
    Span done = std::move(b->span);
    b.reset();
    FinishSpan(done);
    FinishRequest(s);
    return;
  }
  DriveBatch(s);
}

void ServeServer::DriveBatch(std::shared_ptr<Session> s) {
  // The batch_scheduled invariant makes this a single-driver pump: exactly
  // one DriveBatch task exists per batch until it parks (scheduled -> false
  // under the lock) or the batch detaches. Everyone else only flips flags.
  for (;;) {
    enum class Next { kStep, kAbortClosed, kAbortCancel, kAbortDeadline };
    Next next = Next::kStep;
    bool parked = false;
    BatchContext* b = nullptr;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      b = s->batch.get();
      if (b == nullptr) {
        s->batch_scheduled = false;
        return;
      }
      if (s->closed) {
        next = Next::kAbortClosed;
      } else if (s->cancel_requested) {
        next = Next::kAbortCancel;
      } else if (s->outbuf.size() - s->outpos >= options_.max_write_buffer) {
        if (b->deadline && std::chrono::steady_clock::now() > *b->deadline) {
          next = Next::kAbortDeadline;
        } else {
          s->batch_parked = true;
          s->batch_scheduled = false;
          parked = true;
        }
      }
    }
    if (parked) {
      write_stalls_total_->Inc();
      NotifyLoop(s);  // loop records the park deadline; flush resumes us
      return;
    }
    switch (next) {
      case Next::kAbortClosed:
        AbortBatch(s, "client disconnected mid-stream");
        return;
      case Next::kAbortCancel:
        AbortBatch(s, "CANCELLED: request cancelled by client");
        return;
      case Next::kAbortDeadline:
        AbortBatch(s,
                   "DEADLINE_EXCEEDED: response deadline expired mid-stream");
        return;
      case Next::kStep:
        break;
    }
    bool more = false;
    try {
      more = b->cursor->Step(b->sink);
    } catch (const std::exception& e) {
      AbortBatch(s, OneLine(e.what()));
      return;
    }
    if (!more) {
      FinishBatch(s);
      return;
    }
  }
}

void ServeServer::AbortBatch(const std::shared_ptr<Session>& s,
                             const std::string& msg) {
  std::unique_ptr<BatchContext> b;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    b = std::move(s->batch);
  }
  if (!b) {
    FinishRequest(s);
    return;
  }
  b->span.ok = false;
  if (b->span.error.empty()) b->span.error = msg;
  // Release the admission slot before anything else — an abort must never
  // hold its slot through span bookkeeping and queue writes.
  b->cursor.reset();
  if (b->sink.started()) {
    b->sink.Abort(msg);  // in-band marker; Abort flushes the writer
  } else {
    // Before the OK line the plain ERR channel is still clean.
    const std::string text = "ERR " + msg + "\n";
    EnqueueBatchOutput(s, text.data(), text.size());
  }
  errors_total_->Inc();
  FinishSpan(b->span);
  b.reset();
  FinishRequest(s);
}

void ServeServer::FinishBatch(const std::shared_ptr<Session>& s) {
  std::unique_ptr<BatchContext> b;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    b = std::move(s->batch);
  }
  if (!b) {
    FinishRequest(s);
    return;
  }
  b->writer.flush();  // the end frame may still be staged
  const SampleResult& result = b->cursor->result();
  b->span.rows = static_cast<uint64_t>(result.rows);
  rows_streamed_total_->Add(static_cast<uint64_t>(result.rows));
  b->cursor.reset();
  FinishSpan(b->span);
  b.reset();
  FinishRequest(s);
}

void ServeServer::FinishRequest(const std::shared_ptr<Session>& s) {
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->request_in_flight = false;
    s->cancel_requested = false;  // a CANCEL never outlives its request
    s->batch_parked = false;
    s->batch_scheduled = false;
  }
  NotifyLoop(s);  // the loop observes in_request && !request_in_flight
}

// ---------------------------------------------------------------------------
// Shared plumbing.

void ServeServer::EnqueueOutput(const std::shared_ptr<Session>& s,
                                const char* data, size_t len) {
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->closed) return;
  s->outbuf.append(data, len);
  write_queue_bytes_->Record(
      static_cast<int64_t>(s->outbuf.size() - s->outpos));
}

bool ServeServer::EnqueueBatchOutput(const std::shared_ptr<Session>& s,
                                     const char* data, size_t len) {
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->closed) return false;
    s->outbuf.append(data, len);
    write_queue_bytes_->Record(
        static_cast<int64_t>(s->outbuf.size() - s->outpos));
  }
  NotifyLoop(s);
  return true;
}

void ServeServer::NotifyLoop(const std::shared_ptr<Session>& s) {
  if (s->notify_queued.exchange(true, std::memory_order_acq_rel)) return;
  EventLoop* loop = s->loop;
  {
    std::lock_guard<std::mutex> lock(loop->dirty_mu);
    loop->dirty.push_back(s);
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop->wake_fd, &one, sizeof(one));
}

void ServeServer::WakeAllLoops() {
  const uint64_t one = 1;
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    [[maybe_unused]] ssize_t n = ::write(loop->wake_fd, &one, sizeof(one));
  }
}

void ServeServer::SubmitWork(std::function<void()> fn) {
  if (workers_) {
    workers_->Submit(std::move(fn));
  } else {
    fn();
  }
}

void ServeServer::HandleControlLine(const std::string& cmd,
                                    std::istringstream& fields,
                                    std::ostream& out) {
  if (cmd == "PING") {
    out << "OK PONG\n";
    return;
  }

  if (cmd == "HEALTH") {
    const bool ready = state_.load() == ServeState::kReady;
    out << "OK " << (ready ? "READY" : "DRAINING") << " " << live_sessions()
        << " " << sampling_.admission().active() << "\n";
    return;
  }

  if (cmd == "LIST") {
    std::ostringstream body;
    int count = 0;
    for (const std::string& name : registry_->Names()) {
      std::shared_ptr<const ServableModel> handle = registry_->Get(name);
      if (!handle) continue;  // evicted between Names() and Get()
      const PrivBayesModel& model = handle->model();
      char eps[40];
      std::snprintf(eps, sizeof(eps), "%.17g",
                    model.epsilon1 + model.epsilon2);
      body << "MODEL " << name << " " << model.original_schema.num_attrs()
           << " " << model.input_rows << " " << eps << "\n";
      ++count;
    }
    out << "OK " << count << "\n" << body.str();
    return;
  }

  if (cmd == "METRICS") {
    // Byte-counted payload (not line-framed): exposition text is multi-line
    // by nature. Per-server registry first, then the process-global one —
    // family names are disjoint, so the concatenation is valid exposition.
    const std::string payload = metrics_.RenderPrometheus() +
                                MetricsRegistry::Global().RenderPrometheus();
    out << "OK " << payload.size() << "\n" << payload;
    return;
  }

  if (cmd == "DROP") {
    std::string model;
    fields >> model;
    PB_THROW_IF(model.empty(), "usage: DROP <model>");
    PB_THROW_IF(!registry_->Erase(model), "no model named '" << model << "'");
    out << "OK DROPPED " << model << "\n";
    return;
  }

  throw std::runtime_error("unknown command '" + cmd + "'");
}

void ServeServer::HandleQueryBody(std::istringstream& fields,
                                  std::ostream& out, Span& span) {
  std::string model;
  std::vector<int> attrs;
  {
    StageTimer parse_timer(&span, Stage::kParse);
    fields >> model;
    int attr = 0;
    while (fields >> attr) attrs.push_back(attr);
    PB_THROW_IF(model.empty() || attrs.empty() || !fields.eof(),
                "usage: QUERY <model> <attr> [attr ...]");
  }
  span.model = model;
  StageTimer compute_timer(&span, Stage::kSample);
  ProbTable table = query_.Marginal(model, attrs);
  compute_timer.Stop();
  StageTimer write_timer(&span, Stage::kWrite);
  out << "OK " << table.num_vars();
  for (int c : table.cards()) out << " " << c;
  out << "\n";
  // Cells wrap at 256 per line so large marginals stay under the wire
  // line cap; the client consumes values until the cell count is met.
  char cell[40];
  for (size_t i = 0; i < table.size(); ++i) {
    std::snprintf(cell, sizeof(cell), "%.17g", table[i]);
    out << cell << ((i + 1) % 256 == 0 || i + 1 == table.size() ? "\n" : " ");
  }
}

}  // namespace privbayes
