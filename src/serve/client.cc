#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "data/csv.h"
#include "data/packed_codec.h"
#include "serve/wire.h"

namespace privbayes {

const char* ServeErrorCodeName(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kRefused: return "refused";
    case ServeErrorCode::kTimeout: return "timeout";
    case ServeErrorCode::kShedding: return "shedding";
    case ServeErrorCode::kShuttingDown: return "shutting_down";
    case ServeErrorCode::kConnectionLost: return "connection_lost";
    case ServeErrorCode::kProtocol: return "protocol";
    case ServeErrorCode::kServer: return "server";
  }
  return "unknown";
}

ServeErrorCode ClassifyServerMessage(const std::string& message) {
  if (message.rfind("RESOURCE_EXHAUSTED", 0) == 0) {
    return ServeErrorCode::kShedding;
  }
  if (message.rfind("SHUTTING_DOWN", 0) == 0) {
    return ServeErrorCode::kShuttingDown;
  }
  if (message.rfind("DEADLINE_EXCEEDED", 0) == 0) {
    return ServeErrorCode::kTimeout;
  }
  return ServeErrorCode::kServer;
}

RetryPolicy RetryPolicy::WithRetries(int attempts, uint64_t jitter_seed) {
  RetryPolicy policy;
  policy.max_attempts = attempts < 1 ? 1 : attempts;
  policy.jitter_seed = jitter_seed;
  return policy;
}

RetryPolicy RetryPolicy::Default() {
  const char* faults = std::getenv("PRIVBAYES_WIRE_FAULTS");
  if (faults != nullptr && *faults != '\0') return WithRetries(8);
  return None();
}

namespace {

// Non-blocking connect with a poll()-bounded wait. Returns the connected
// (blocking-mode) fd; throws ServeError{kRefused|kTimeout|kConnectionLost}.
// EINTR during connect()/poll() is retried against the remaining budget —
// a signal must not abort (or infinitely extend) connection establishment.
int ConnectWithTimeout(const std::string& host, int port,
                       std::chrono::milliseconds timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ServeError(ServeErrorCode::kConnectionLost, "socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw ServeError(ServeErrorCode::kRefused, "bad host address: " + host);
  }

  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  // On EINTR the connection attempt continues asynchronously — poll for the
  // outcome exactly as for EINPROGRESS.
  if (rc != 0 && errno != EINPROGRESS && errno != EALREADY &&
      errno != EISCONN) {
    const int err = errno;
    ::close(fd);
    throw ServeError(ServeErrorCode::kRefused,
                     "cannot connect to " + host + ":" + std::to_string(port) +
                         " (" + std::strerror(err) + ")");
  }
  if (rc != 0) {
    for (;;) {
      const auto remaining = deadline - std::chrono::steady_clock::now();
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count();
      if (remaining_ms <= 0) {
        ::close(fd);
        throw ServeError(ServeErrorCode::kTimeout,
                         "connect to " + host + ":" + std::to_string(port) +
                             " timed out after " +
                             std::to_string(timeout.count()) + " ms");
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
      if (ready < 0) {
        if (errno == EINTR) continue;  // re-derive the remaining budget
        ::close(fd);
        throw ServeError(ServeErrorCode::kConnectionLost, "poll() failed");
      }
      if (ready == 0) continue;  // loop re-checks the deadline
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ::close(fd);
        throw ServeError(
            err == ETIMEDOUT ? ServeErrorCode::kTimeout
                             : ServeErrorCode::kRefused,
            "cannot connect to " + host + ":" + std::to_string(port) + " (" +
                std::strerror(err) + ")");
      }
      break;  // connected
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  // Request lines are single small writes; don't let Nagle hold them back.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

ServeClient::ServeClient(const std::string& host, int port, RetryPolicy policy)
    : host_(host), port_(port), policy_(policy) {
  WithRetry([&] {
    EnsureConnected();
    return 0;
  });
}

ServeClient::ServeClient(int connected_fd) : policy_(RetryPolicy::None()) {
  fd_ = connected_fd;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServeClient::EnsureConnected() {
  if (fd_ >= 0) return;
  if (port_ < 0) {
    throw ServeError(ServeErrorCode::kConnectionLost,
                     "adopted connection closed; cannot reconnect");
  }
  fd_ = ConnectWithTimeout(host_, port_, policy_.connect_timeout);
  inbuf_ = WireBuffer{};
}

void ServeClient::CloseConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_ = WireBuffer{};
}

template <typename Fn>
auto ServeClient::WithRetry(Fn&& fn) -> decltype(fn()) {
  for (int attempt = 1;; ++attempt) {
    try {
      EnsureConnected();
      return fn();
    } catch (const ServeError& e) {
      // In-band aborts (shedding, deadline) leave the connection line-
      // synchronized; every other failure makes its state suspect.
      const bool connection_usable =
          fd_ >= 0 && (e.code() == ServeErrorCode::kShedding ||
                       e.code() == ServeErrorCode::kTimeout);
      if (!connection_usable) CloseConnection();
      if (!e.retryable() || attempt >= policy_.max_attempts) throw;
      ++retries_;
      if (fd_ < 0) ++reconnects_;  // the next attempt will reconnect
      // Capped exponential backoff with deterministic seeded jitter in
      // [0.5, 1.0): concurrent clients (distinct seeds) spread out instead
      // of thundering back in lockstep.
      auto backoff = policy_.initial_backoff * (int64_t{1} << std::min(
                         attempt - 1, 20));
      if (backoff > policy_.max_backoff) backoff = policy_.max_backoff;
      const uint64_t h =
          SplitMix64(policy_.jitter_seed ^ SplitMix64(backoff_stream_++));
      const double jitter = 0.5 + 0.5 * (static_cast<double>(h >> 11) *
                                         0x1.0p-53);
      std::this_thread::sleep_for(std::chrono::duration_cast<
                                  std::chrono::milliseconds>(backoff * jitter));
    }
  }
}

void ServeClient::SendLine(const std::string& line) {
  std::string framed = line + "\n";
  if (!WriteWireBytes(fd_, framed.data(), framed.size())) {
    throw ServeError(ServeErrorCode::kConnectionLost,
                     "connection lost while sending");
  }
}

std::string ServeClient::ReadLine() {
  const long timeout_ms = policy_.read_timeout.count() > 0
                              ? static_cast<long>(policy_.read_timeout.count())
                              : -1;
  std::string line;
  const WireIoStatus status =
      ReadWireLineTimeout(fd_, inbuf_, line, timeout_ms);
  if (status == WireIoStatus::kTimeout) {
    // The server accepted the request but never answered within the budget.
    // Unlike a server-side DEADLINE_EXCEEDED (an in-band abort on a still-
    // synchronized connection), the reply may still arrive later — close
    // the connection BEFORE throwing so a retry reconnects instead of
    // pairing the stale reply with the next request.
    CloseConnection();
    throw ServeError(ServeErrorCode::kTimeout,
                     "no response within " +
                         std::to_string(policy_.read_timeout.count()) +
                         " ms");
  }
  if (status != WireIoStatus::kOk) {
    throw ServeError(ServeErrorCode::kConnectionLost,
                     "connection closed by server");
  }
  return line;
}

bool ServeClient::ReadExact(void* dst, size_t len) {
  const long timeout_ms = policy_.read_timeout.count() > 0
                              ? static_cast<long>(policy_.read_timeout.count())
                              : -1;
  const WireIoStatus status =
      ReadWireExactTimeout(fd_, inbuf_, dst, len, timeout_ms);
  if (status == WireIoStatus::kTimeout) {
    CloseConnection();  // mid-payload: the connection is desynchronized
    throw ServeError(ServeErrorCode::kTimeout,
                     "no response within " +
                         std::to_string(policy_.read_timeout.count()) +
                         " ms");
  }
  return status == WireIoStatus::kOk;
}

std::string ServeClient::ExpectOk() {
  std::string line = ReadLine();
  if (line.rfind("OK", 0) == 0) {
    return line.size() > 3 ? line.substr(3) : std::string();
  }
  if (line.rfind("ERR ", 0) == 0) {
    std::string message = line.substr(4);
    throw ServeError(ClassifyServerMessage(message), "server: " + message);
  }
  throw ServeError(ServeErrorCode::kProtocol,
                   "malformed response '" + line + "'");
}

void ServeClient::Ping() {
  WithRetry([&] {
    SendLine("PING");
    if (ExpectOk() != "PONG") {
      throw ServeError(ServeErrorCode::kProtocol, "bad PING reply");
    }
    return 0;
  });
}

std::vector<ServedModelInfo> ServeClient::List() {
  return WithRetry([&] {
    SendLine("LIST");
    std::istringstream head(ExpectOk());
    int count = 0;
    head >> count;
    if (!head || count < 0) {
      throw ServeError(ServeErrorCode::kProtocol, "bad LIST reply");
    }
    std::vector<ServedModelInfo> models;
    for (int i = 0; i < count; ++i) {
      std::istringstream entry(ReadLine());
      std::string tok;
      ServedModelInfo info;
      entry >> tok >> info.name >> info.num_attrs >> info.input_rows >>
          info.epsilon;
      if (!entry || tok != "MODEL") {
        throw ServeError(ServeErrorCode::kProtocol, "bad LIST entry");
      }
      models.push_back(std::move(info));
    }
    return models;
  });
}

Dataset ServeClient::SampleBinary(const std::string& model, int64_t num_rows,
                                  uint64_t seed,
                                  const std::vector<int>& columns) {
  return WithRetry([&] {
    std::ostringstream request;
    request << "SAMPLEB " << model << " " << num_rows << " " << seed;
    for (int c : columns) request << " " << c;
    SendLine(request.str());

    std::istringstream head(ExpectOk());
    int64_t rows = 0;
    int cols = 0;
    head >> rows >> cols;
    if (!head || rows != num_rows || cols <= 0) {
      throw ServeError(ServeErrorCode::kProtocol, "bad SAMPLEB reply header");
    }
    std::vector<std::string> names = SplitCsvLine(ReadLine());
    if (static_cast<int>(names.size()) != cols) {
      throw ServeError(ServeErrorCode::kProtocol, "bad SAMPLEB name header");
    }

    // Frame stream: one schema frame, row frames, then exactly one end frame
    // (success) or error frame (in-band abort). Every length the server
    // declares is validated BEFORE allocation: the global frame cap first,
    // then — once the schema fixes the packed widths — the exact byte bound
    // a full row frame can reach. A hostile 4 GB length prefix, an oversize
    // row frame or more rows than the request asked for is a typed protocol
    // error, never an allocation.
    std::vector<int> cards;
    std::vector<uint32_t> log2_bits;
    std::vector<std::vector<Value>> cols_data;
    size_t max_row_frame = 0;  // computed from the schema frame
    std::string payload;
    bool saw_schema = false;
    for (;;) {
      char lenbuf[4];
      if (!ReadExact(lenbuf, sizeof(lenbuf))) {
        throw ServeError(ServeErrorCode::kConnectionLost,
                         "connection closed mid-frame");
      }
      uint32_t len = LoadU32(lenbuf);
      if (len == 0 || len > kMaxWireFrame) {
        throw ServeError(ServeErrorCode::kProtocol,
                         "SAMPLEB frame length " + std::to_string(len) +
                             " outside (0, " + std::to_string(kMaxWireFrame) +
                             "]");
      }
      payload.resize(len);
      if (!ReadExact(payload.data(), len)) {
        throw ServeError(ServeErrorCode::kConnectionLost,
                         "connection closed mid-frame");
      }
      const uint8_t type = static_cast<uint8_t>(payload[0]);
      if (type == kWireFrameSchema) {
        if (saw_schema || len < 3) {
          throw ServeError(ServeErrorCode::kProtocol, "bad schema frame");
        }
        int ncols = LoadU16(payload.data() + 1);
        if (ncols != cols || len != 3 + 2 * static_cast<size_t>(ncols)) {
          throw ServeError(ServeErrorCode::kProtocol, "bad schema frame");
        }
        max_row_frame = 3;
        for (int c = 0; c < ncols; ++c) {
          int card = LoadU16(payload.data() + 3 + 2 * c);
          if (card == 0) card = 65536;  // wire encoding of the u16 overflow
          cards.push_back(card);
          log2_bits.push_back(PackedLog2Bits(card));
          max_row_frame += PackedBytes(kMaxWireFrameRows, log2_bits.back());
        }
        // The overrun check below bounds every column at `rows` values.
        cols_data.assign(static_cast<size_t>(cols), {});
        for (std::vector<Value>& col : cols_data) {
          col.reserve(static_cast<size_t>(rows));
        }
        saw_schema = true;
      } else if (type == kWireFrameRows) {
        if (!saw_schema || len < 3) {
          throw ServeError(ServeErrorCode::kProtocol, "bad row frame");
        }
        if (len > max_row_frame) {
          throw ServeError(ServeErrorCode::kProtocol,
                           "row frame larger than the schema allows");
        }
        const int n = LoadU16(payload.data() + 1);
        // Per-frame length is capped above, but the total must be bounded
        // too: never accept more rows than the request asked for, so a
        // buggy or hostile server cannot grow client memory without bound.
        if (!cols_data.empty() &&
            static_cast<int64_t>(cols_data[0].size()) + n > rows) {
          throw ServeError(ServeErrorCode::kProtocol, "SAMPLEB row overrun");
        }
        size_t at = 3;
        for (int c = 0; c < cols; ++c) {
          const size_t bytes = PackedBytes(n, log2_bits[c]);
          if (at + bytes > len) {
            throw ServeError(ServeErrorCode::kProtocol, "short row frame");
          }
          std::vector<Value>& col = cols_data[static_cast<size_t>(c)];
          const size_t base = col.size();
          col.resize(base + static_cast<size_t>(n));
          UnpackValues(reinterpret_cast<const uint8_t*>(payload.data()) + at,
                       static_cast<size_t>(n), log2_bits[c],
                       col.data() + base);
          if (MaxValue(col.data() + base, static_cast<size_t>(n)) >=
              cards[c]) {
            throw ServeError(ServeErrorCode::kProtocol,
                             "SAMPLEB value out of domain for column '" +
                                 names[static_cast<size_t>(c)] + "'");
          }
          at += bytes;
        }
      } else if (type == kWireFrameEnd) {
        if (!saw_schema) {
          throw ServeError(ServeErrorCode::kProtocol, "bad SAMPLEB trailer");
        }
        break;
      } else if (type == kWireFrameError) {
        std::string message = payload.substr(1);
        throw ServeError(ClassifyServerMessage(message), "server: " + message);
      } else {
        throw ServeError(ServeErrorCode::kProtocol,
                         "unknown SAMPLEB frame type");
      }
    }
    if (saw_schema && !cols_data.empty() &&
        static_cast<int64_t>(cols_data[0].size()) != rows) {
      throw ServeError(ServeErrorCode::kProtocol, "short SAMPLEB batch");
    }

    std::vector<Attribute> attrs;
    attrs.reserve(static_cast<size_t>(cols));
    for (int c = 0; c < cols; ++c) {
      attrs.push_back(
          cards[c] == 2
              ? Attribute::Binary(names[static_cast<size_t>(c)])
              : Attribute::Categorical(names[static_cast<size_t>(c)],
                                       cards[c]));
    }
    return Dataset::FromColumns(Schema(std::move(attrs)),
                                std::move(cols_data));
  });
}

ServeClient::QueryReply ServeClient::Query(const std::string& model,
                                           const std::vector<int>& attrs) {
  return WithRetry([&] {
    std::ostringstream request;
    request << "QUERY " << model;
    for (int a : attrs) request << " " << a;
    SendLine(request.str());

    std::istringstream head(ExpectOk());
    int num_vars = 0;
    head >> num_vars;
    if (!head || num_vars <= 0) {
      throw ServeError(ServeErrorCode::kProtocol, "bad QUERY reply");
    }
    QueryReply reply;
    reply.cards.resize(static_cast<size_t>(num_vars));
    size_t cells = 1;
    for (int& card : reply.cards) {
      head >> card;
      if (!head || card <= 0) {
        throw ServeError(ServeErrorCode::kProtocol, "bad QUERY cards");
      }
      cells *= static_cast<size_t>(card);
    }
    // Cells arrive whitespace-separated, wrapped across lines by the server.
    reply.probs.reserve(cells);
    while (reply.probs.size() < cells) {
      std::istringstream body(ReadLine());
      size_t before = reply.probs.size();
      double p = 0;
      while (body >> p) reply.probs.push_back(p);
      if (reply.probs.size() == before || reply.probs.size() > cells) {
        throw ServeError(ServeErrorCode::kProtocol, "bad QUERY cells");
      }
    }
    return reply;
  });
}

std::string ServeClient::Metrics() {
  return WithRetry([&] {
    SendLine("METRICS");
    std::istringstream head(ExpectOk());
    int64_t nbytes = -1;
    head >> nbytes;
    if (!head || nbytes < 0 || nbytes > static_cast<int64_t>(kMaxWireFrame)) {
      throw ServeError(ServeErrorCode::kProtocol, "bad METRICS reply");
    }
    std::string payload(static_cast<size_t>(nbytes), '\0');
    if (nbytes > 0 &&
        !ReadExact(payload.data(), static_cast<size_t>(nbytes))) {
      throw ServeError(ServeErrorCode::kConnectionLost,
                       "connection lost mid-METRICS");
    }
    return payload;
  });
}

ServeHealth ServeClient::Health() {
  return WithRetry([&] {
    SendLine("HEALTH");
    std::istringstream head(ExpectOk());
    ServeHealth health;
    head >> health.state >> health.sessions >> health.active_batches;
    if (!head || (health.state != "READY" && health.state != "DRAINING")) {
      throw ServeError(ServeErrorCode::kProtocol, "bad HEALTH reply");
    }
    health.ready = health.state == "READY";
    return health;
  });
}

void ServeClient::Drop(const std::string& model) {
  EnsureConnected();
  SendLine("DROP " + model);
  ExpectOk();
}

void ServeClient::Cancel() {
  if (fd_ < 0) return;  // nothing in flight on a closed connection
  // Fire-and-forget: CANCEL has no response of its own, so there is nothing
  // to read here — the outcome surfaces as a CANCELLED error frame in
  // the stream another reader is consuming (or not at all when nothing is
  // in flight). A failed send means the connection is already dead, which
  // the in-flight read will surface on its own.
  static const char kLine[] = "CANCEL\n";
  WriteWireBytes(fd_, kLine, sizeof(kLine) - 1);
}

void ServeClient::Quit() {
  if (fd_ < 0) return;  // nothing to say goodbye on
  try {
    SendLine("QUIT");
    ExpectOk();
  } catch (const ServeError&) {
    // Best effort: the goodbye is a courtesy, and whether the peer ACKed it
    // or the connection died first, the outcome is the same — closed.
  }
  CloseConnection();
}

}  // namespace privbayes
