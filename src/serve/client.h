// Blocking line-protocol client for ServeServer (serve/server.h).
//
// Used by the example client, the end-to-end tests and the CI serving
// smoke job; keeping it in the library guarantees the client and server
// cannot drift apart on the wire format. One ServeClient is one TCP
// connection; it is not thread-safe — open one per client thread (the
// server handles each connection on its own thread).
//
// Failure model: every failure surfaces as a ServeError carrying a code
// from the taxonomy below. Idempotent requests (everything except DROP and
// QUIT — sampled rows are a pure function of the request seed, so replaying
// a whole request is always safe and bit-identical) are retried under the
// client's RetryPolicy: on a retryable error the client backs off
// (capped exponential + seeded jitter), reconnects if the connection state
// is suspect, and replays the request. Protocol violations and server-side
// request rejections are never retried — they would fail identically.

#ifndef PRIVBAYES_SERVE_CLIENT_H_
#define PRIVBAYES_SERVE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "prob/prob_table.h"
#include "serve/wire.h"

namespace privbayes {

/// Failure taxonomy for serve-layer clients.
enum class ServeErrorCode {
  kRefused,         ///< connect refused / host unreachable (server down?)
  kTimeout,         ///< connect timed out, or the server aborted the stream
                    ///< with DEADLINE_EXCEEDED
  kShedding,        ///< server shed the request (RESOURCE_EXHAUSTED reply)
  kShuttingDown,    ///< server draining (SHUTTING_DOWN reply)
  kConnectionLost,  ///< EOF/reset/torn stream mid-exchange
  kProtocol,        ///< peer spoke garbage (oversize frame, bad framing,
                    ///< row overrun) — the connection is poisoned
  kServer,          ///< server rejected the request (unknown model, bad
                    ///< arguments, internal error) — retrying won't help
};

/// Human-readable code name ("kRefused" → "refused", ...).
const char* ServeErrorCodeName(ServeErrorCode code);

class ServeError : public std::runtime_error {
 public:
  ServeError(ServeErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  ServeErrorCode code() const { return code_; }

  /// True for failures where replaying the (idempotent, seed-deterministic)
  /// request can succeed: the server may be back, drained traffic may have
  /// moved, load may have passed. Protocol violations and explicit server
  /// rejections are deterministic — never retried.
  bool retryable() const {
    return code_ != ServeErrorCode::kProtocol &&
           code_ != ServeErrorCode::kServer;
  }

 private:
  ServeErrorCode code_;
};

/// Retry/backoff configuration. Attempt n (1-based) that fails retryably
/// sleeps min(initial_backoff · 2^(n-1), max_backoff) scaled by a
/// deterministic jitter factor in [0.5, 1.0) derived from jitter_seed —
/// seeded, so a chaos run's timing is reproducible and concurrent clients
/// (different seeds) don't thunder in lockstep.
struct RetryPolicy {
  /// Total tries per request (1 = no retry).
  int max_attempts = 1;
  std::chrono::milliseconds initial_backoff{2};
  std::chrono::milliseconds max_backoff{250};
  /// Bound on connect() (non-blocking + poll); expiry throws kTimeout
  /// instead of hanging on a black-holed address.
  std::chrono::milliseconds connect_timeout{5000};
  /// Per-read inactivity bound (poll before each recv): a server that
  /// accepted the request but never answers within this window throws
  /// kTimeout instead of hanging forever. The connection is closed first —
  /// unlike a server-side DEADLINE_EXCEEDED abort, the reply may still
  /// arrive later and would desynchronize the line protocol. Zero or
  /// negative waits forever (the pre-timeout behavior).
  std::chrono::milliseconds read_timeout{30000};
  uint64_t jitter_seed = 1;

  /// No retries, 5 s connect timeout: the pre-resilience behavior minus the
  /// indefinite connect hang.
  static RetryPolicy None() { return RetryPolicy{}; }

  /// `attempts` tries with 2 ms → 250 ms capped exponential backoff.
  static RetryPolicy WithRetries(int attempts, uint64_t jitter_seed = 1);

  /// Default for the two-argument ServeClient constructor: no retries —
  /// unless PRIVBAYES_WIRE_FAULTS is armed, where every connection is
  /// deliberately lossy and retry-until-success IS the contract under test
  /// (8 attempts).
  static RetryPolicy Default();
};

/// One LIST entry.
struct ServedModelInfo {
  std::string name;
  int num_attrs = 0;
  int64_t input_rows = 0;
  double epsilon = 0;
};

/// HEALTH reply: serving state plus the load gauges a balancer or boot
/// script needs.
struct ServeHealth {
  bool ready = false;       ///< state == "READY"
  std::string state;        ///< "READY" or "DRAINING"
  int sessions = 0;         ///< live connections (including this probe)
  int active_batches = 0;   ///< SAMPLEB batches running right now
};

class ServeClient {
 public:
  /// Connects (respecting policy.connect_timeout, retrying per the policy);
  /// throws ServeError{kRefused|kTimeout} when the server is unreachable.
  ServeClient(const std::string& host, int port,
              RetryPolicy policy = RetryPolicy::Default());

  /// Adopts an already-connected socket (tests feed hostile bytes through a
  /// socketpair). No host/port — reconnect is impossible, so retries are off.
  explicit ServeClient(int connected_fd);

  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Round trip; throws if the server does not answer PONG.
  void Ping();

  /// Registered models.
  std::vector<ServedModelInfo> List();

  /// Requests `num_rows` synthetic rows under `seed` (same seed ⇒ the server
  /// streams identical rows on every call), optionally projected to
  /// `columns` (original-schema indices), over SAMPLEB. The packed frames
  /// decode into a Dataset over a flat schema rebuilt from the served column
  /// names and cardinalities — cell-for-cell identical to local
  /// SampleSyntheticData under the same seed. For CSV, pass the result to
  /// data/csv.h's WriteCsv. Frame lengths and row counts the server declares
  /// are validated against the request — a hostile or corrupt server cannot
  /// make this client allocate beyond the batch it asked for
  /// (ServeError{kProtocol} instead). A mid-stream error frame (e.g.
  /// DEADLINE_EXCEEDED) throws a typed ServeError with the server message;
  /// the connection stays usable.
  Dataset SampleBinary(const std::string& model, int64_t num_rows,
                       uint64_t seed, const std::vector<int>& columns = {});

  struct QueryReply {
    std::vector<int> cards;     ///< marginal shape, query-attribute order
    std::vector<double> probs;  ///< row-major cells, sums to 1
  };
  /// Exact model marginal over `attrs`.
  QueryReply Query(const std::string& model, const std::vector<int>& attrs);

  /// Raw Prometheus text exposition from the METRICS command (the server's
  /// registry plus the process-global one). The payload is byte-counted on
  /// the wire and returned verbatim for a scraper to relay or parse.
  std::string Metrics();

  /// Serving state (READY/DRAINING), session count, in-flight batches.
  ServeHealth Health();

  /// Evicts a model from the server's registry. Not idempotent (a replay
  /// would fail with "no model named"), so never retried.
  void Drop(const std::string& model);

  /// Aborts the in-flight SAMPLEB on this connection: sends the
  /// fire-and-forget CANCEL line (the one command with no response of its
  /// own) and returns immediately. The outcome surfaces in the stream being
  /// read — a CANCELLED error frame — or, when nothing is in flight, in
  /// nothing at all (the server ignores it). Only writes to the socket, so
  /// it is safe to call from a second thread while this connection streams
  /// a batch; never retried, never throws.
  void Cancel();

  /// Polite shutdown of this connection: best effort, never retried, never
  /// throws. The connection is closed whether or not the peer ACKs.
  void Quit();

  /// Whole-request retries performed so far (across all calls).
  uint64_t retries() const { return retries_; }
  /// Reconnects performed so far (initial connect not counted).
  uint64_t reconnects() const { return reconnects_; }

 private:
  template <typename Fn>
  auto WithRetry(Fn&& fn) -> decltype(fn());

  void EnsureConnected();
  void CloseConnection();
  void SendLine(const std::string& line);
  std::string ReadLine();
  /// ReadWireExact under policy_.read_timeout: throws kTimeout (closing the
  /// connection first), returns false on EOF/reset for the caller's typed
  /// connection-lost error.
  bool ReadExact(void* dst, size_t len);
  /// Reads a response line; returns the payload after "OK", throws a typed
  /// ServeError on "ERR" (code from the message marker) or garbage.
  std::string ExpectOk();

  std::string host_;
  int port_ = -1;  // -1 = adopted fd, reconnect impossible
  RetryPolicy policy_;
  int fd_ = -1;
  WireBuffer inbuf_;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t backoff_stream_ = 0;  // jitter stream position
};

/// Maps a server ERR/abort message to the error taxonomy by its leading
/// marker: RESOURCE_EXHAUSTED → kShedding, SHUTTING_DOWN → kShuttingDown,
/// DEADLINE_EXCEEDED → kTimeout, anything else → kServer.
ServeErrorCode ClassifyServerMessage(const std::string& message);

}  // namespace privbayes

#endif  // PRIVBAYES_SERVE_CLIENT_H_
