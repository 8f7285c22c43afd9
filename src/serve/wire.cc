#include "serve/wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "common/check.h"
#include "common/flags.h"
#include "common/random.h"

namespace privbayes {

// --------------------------------------------------------------- faults ----

namespace {

// Injector state. seed/rate change rarely (test setup, env parse) and are
// read on every armed I/O call; a mutex guards writes, the hot path reads
// the packed snapshot through one acquire load.
struct FaultConfig {
  uint64_t seed = 0;
  double rate = 0;
};
std::mutex g_fault_mu;
FaultConfig g_fault_config;                 // guarded by g_fault_mu
std::atomic<uint64_t> g_fault_calls{0};     // global decision index
std::atomic<uint64_t> g_stat_eintr{0};
std::atomic<uint64_t> g_stat_short{0};
std::atomic<uint64_t> g_stat_delay{0};
std::atomic<uint64_t> g_stat_kill{0};
FaultConfig LoadFaultConfig() {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  return g_fault_config;
}

}  // namespace

std::atomic<bool> WireFaults::armed_{false};

namespace {

// Arms the injector from PRIVBAYES_WIRE_FAULTS at load time, so a daemon or
// test binary started under the env var needs no code change to run faulty.
struct WireFaultEnvInit {
  WireFaultEnvInit() {
    if (std::getenv("PRIVBAYES_WIRE_FAULTS") != nullptr) {
      WireFaults::ResetFromEnv();
    }
  }
} g_wire_fault_env_init;

}  // namespace

void WireFaults::ConfigureForTesting(uint64_t seed, double rate) {
  if (rate < 0) rate = 0;
  if (rate > 1) rate = 1;
  {
    std::lock_guard<std::mutex> lock(g_fault_mu);
    g_fault_config = {seed, rate};
  }
  armed_.store(rate > 0, std::memory_order_relaxed);
}

void WireFaults::Disable() { ConfigureForTesting(0, 0); }

void WireFaults::ResetFromEnv() {
  const char* spec = std::getenv("PRIVBAYES_WIRE_FAULTS");
  if (spec == nullptr || *spec == '\0') {
    Disable();
    return;
  }
  const std::string_view text(spec);
  const size_t colon = text.find(':');
  const std::optional<long long> seed =
      colon == std::string_view::npos
          ? std::nullopt
          : ParseCount(text.substr(0, colon),
                       std::numeric_limits<long long>::max());
  const std::optional<double> rate =
      seed ? ParseNonNegativeDouble(text.substr(colon + 1)) : std::nullopt;
  PB_THROW_IF(!rate || *rate > 1,
              "PRIVBAYES_WIRE_FAULTS='" << spec
                                        << "' is not <seed>:<rate> with a "
                                           "rate in [0, 1]");
  ConfigureForTesting(static_cast<uint64_t>(*seed), *rate);
}

WireFaultStats WireFaults::stats() {
  WireFaultStats s;
  s.calls = g_fault_calls.load(std::memory_order_relaxed);
  s.eintr = g_stat_eintr.load(std::memory_order_relaxed);
  s.short_io = g_stat_short.load(std::memory_order_relaxed);
  s.delays = g_stat_delay.load(std::memory_order_relaxed);
  s.kills = g_stat_kill.load(std::memory_order_relaxed);
  return s;
}

void WireFaults::ResetStats() {
  g_fault_calls.store(0, std::memory_order_relaxed);
  g_stat_eintr.store(0, std::memory_order_relaxed);
  g_stat_short.store(0, std::memory_order_relaxed);
  g_stat_delay.store(0, std::memory_order_relaxed);
  g_stat_kill.store(0, std::memory_order_relaxed);
}

WireFaults::ScopedDisable::ScopedDisable() {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  saved_seed_ = g_fault_config.seed;
  saved_rate_ = g_fault_config.rate;
  g_fault_config.rate = 0;
  armed_.store(false, std::memory_order_relaxed);
}

WireFaults::ScopedDisable::~ScopedDisable() {
  ConfigureForTesting(saved_seed_, saved_rate_);
}

WireFaults::Action WireFaults::Decide(size_t& len) {
  const FaultConfig config = LoadFaultConfig();
  if (config.rate <= 0) return Action::kNone;
  const uint64_t index = g_fault_calls.fetch_add(1, std::memory_order_relaxed);
  const uint64_t h = SplitMix64(config.seed ^ SplitMix64(index));
  // Top 53 bits as a uniform in [0,1): below the rate → inject.
  if (static_cast<double>(h >> 11) * 0x1.0p-53 >= config.rate) {
    return Action::kNone;
  }
  switch (SplitMix64(h) & 3) {
    case 0:
      g_stat_eintr.fetch_add(1, std::memory_order_relaxed);
      return Action::kEintr;
    case 1: {
      g_stat_short.fetch_add(1, std::memory_order_relaxed);
      // Cap, never grow: recv writes into the caller's buffer, so the
      // perturbed length must stay within the requested one.
      const size_t cap = 1 + (SplitMix64(h + 1) & 7);
      if (len > cap) len = cap;
      return Action::kShortIo;
    }
    case 2:
      g_stat_delay.fetch_add(1, std::memory_order_relaxed);
      return Action::kDelay;
    default:
      g_stat_kill.fetch_add(1, std::memory_order_relaxed);
      return Action::kKill;
  }
}

ssize_t FaultyRecv(int fd, void* buf, size_t len) {
  if (WireFaults::enabled()) {
    switch (WireFaults::Decide(len)) {
      case WireFaults::Action::kEintr:
        errno = EINTR;
        return -1;
      case WireFaults::Action::kDelay:
        std::this_thread::sleep_for(std::chrono::microseconds(
            200 + (g_fault_calls.load(std::memory_order_relaxed) % 8) * 250));
        break;
      case WireFaults::Action::kKill:
        ::shutdown(fd, SHUT_RDWR);
        break;
      case WireFaults::Action::kShortIo:  // len already capped
      case WireFaults::Action::kNone:
        break;
    }
  }
  return ::recv(fd, buf, len, 0);
}

ssize_t FaultySend(int fd, const void* buf, size_t len) {
  if (WireFaults::enabled()) {
    switch (WireFaults::Decide(len)) {
      case WireFaults::Action::kEintr:
        errno = EINTR;
        return -1;
      case WireFaults::Action::kDelay:
        std::this_thread::sleep_for(std::chrono::microseconds(
            200 + (g_fault_calls.load(std::memory_order_relaxed) % 8) * 250));
        break;
      case WireFaults::Action::kKill:
        ::shutdown(fd, SHUT_RDWR);
        break;
      case WireFaults::Action::kShortIo:
      case WireFaults::Action::kNone:
        break;
    }
  }
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

WireExtract ExtractWireLine(WireBuffer& buf, std::string& line,
                            size_t max_line) {
  size_t nl = buf.data.find('\n', buf.pos);
  if (nl != std::string::npos) {
    if (nl - buf.pos > max_line) return WireExtract::kOverflow;
    line.assign(buf.data, buf.pos, nl - buf.pos);
    buf.pos = nl + 1;
    if (buf.pos == buf.data.size()) {
      buf.data.clear();
      buf.pos = 0;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return WireExtract::kLine;
  }
  if (buf.data.size() - buf.pos > max_line) return WireExtract::kOverflow;
  // Compact the consumed prefix before the caller grows the buffer further.
  if (buf.pos > 0) {
    buf.data.erase(0, buf.pos);
    buf.pos = 0;
  }
  return WireExtract::kNeedMore;
}

namespace {

// Waits up to `timeout_ms` for `fd` readability (< 0 = forever). False only
// on a clean timeout; poll errors return true and let the following recv
// surface them.
bool PollReadable(int fd, long timeout_ms) {
  if (timeout_ms < 0) return true;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    long left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left < 0) left = 0;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, static_cast<int>(left));
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return true;
  }
}

}  // namespace

WireIoStatus ReadWireLineTimeout(int fd, WireBuffer& buf, std::string& line,
                                 long timeout_ms, size_t max_line) {
  for (;;) {
    switch (ExtractWireLine(buf, line, max_line)) {
      case WireExtract::kLine:
        return WireIoStatus::kOk;
      case WireExtract::kOverflow:
        return WireIoStatus::kEof;  // runaway line: same surface as a dead peer
      case WireExtract::kNeedMore:
        break;
    }
    if (!PollReadable(fd, timeout_ms)) return WireIoStatus::kTimeout;
    char chunk[1 << 16];
    ssize_t got = FaultyRecv(fd, chunk, sizeof(chunk));
    if (got < 0) {
      // A signal landing on this thread interrupts recv without any data
      // loss; only a real error (or SO_RCVTIMEO expiry) means a dead peer.
      if (errno == EINTR) continue;
      return WireIoStatus::kEof;
    }
    if (got == 0) return WireIoStatus::kEof;  // EOF
    buf.data.append(chunk, static_cast<size_t>(got));
  }
}

WireIoStatus ReadWireExactTimeout(int fd, WireBuffer& buf, void* dst,
                                  size_t len, long timeout_ms) {
  char* out = static_cast<char*>(dst);
  // Drain bytes already buffered by a preceding line read.
  size_t have = buf.data.size() - buf.pos;
  if (have > 0) {
    size_t take = have < len ? have : len;
    std::memcpy(out, buf.data.data() + buf.pos, take);
    buf.pos += take;
    out += take;
    len -= take;
    if (buf.pos == buf.data.size()) {
      buf.data.clear();
      buf.pos = 0;
    }
  }
  while (len > 0) {
    if (!PollReadable(fd, timeout_ms)) return WireIoStatus::kTimeout;
    ssize_t got = FaultyRecv(fd, out, len);
    if (got < 0) {
      if (errno == EINTR) continue;
      return WireIoStatus::kEof;
    }
    if (got == 0) return WireIoStatus::kEof;  // EOF mid-frame
    out += got;
    len -= static_cast<size_t>(got);
  }
  return WireIoStatus::kOk;
}

std::optional<std::string> ReadWireLine(int fd, WireBuffer& buf,
                                        size_t max_line) {
  std::string line;
  if (ReadWireLineTimeout(fd, buf, line, /*timeout_ms=*/-1, max_line) !=
      WireIoStatus::kOk) {
    return std::nullopt;
  }
  return line;
}

bool ReadWireExact(int fd, WireBuffer& buf, void* dst, size_t len) {
  return ReadWireExactTimeout(fd, buf, dst, len, /*timeout_ms=*/-1) ==
         WireIoStatus::kOk;
}

bool WriteWireBytes(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t sent = FaultySend(fd, data, len);
    if (sent < 0) {
      if (errno == EINTR) continue;  // interrupted, not dead
      return false;
    }
    if (sent == 0) return false;
    data += sent;
    len -= static_cast<size_t>(sent);
  }
  return true;
}

void AppendU16(std::string& out, uint16_t v) {
  out.resize(out.size() + 2);
  StoreU16(out.data() + out.size() - 2, v);
}

void AppendU32(std::string& out, uint32_t v) {
  out.resize(out.size() + 4);
  StoreU32(out.data() + out.size() - 4, v);
}

void StoreU16(char* p, uint16_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>(v >> 8);
}

void StoreU32(char* p, uint32_t v) {
  StoreU16(p, static_cast<uint16_t>(v));
  StoreU16(p + 2, static_cast<uint16_t>(v >> 16));
}

uint16_t LoadU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(b[0] | (b[1] << 8));
}

uint32_t LoadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

}  // namespace privbayes
