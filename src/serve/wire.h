// Shared wire-level socket I/O for the serve layer. Server and client frame
// every message the same way, so the readers/writers live here once — a
// protocol change (or a cap tweak) cannot drift between the two ends.
//
// Two framings share one receive buffer:
//   * text lines — '\n'-terminated ('\r' tolerated), used by every command
//     and by the SAMPLEB column-name header;
//   * binary frames — u32 little-endian payload length followed by the
//     payload, whose first byte is a frame type. The SAMPLEB row stream is
//     a schema frame, then row frames (u16 row count + each column packed
//     by data/packed_codec.h at its PackedLog2Bits width — the codec and
//     widths of the ColumnStore's own slices), closed by exactly one end
//     frame (success) or error frame (in-band abort).
//
// All reads and writes retry on EINTR: a signal delivered to a session or
// client thread must never be mistaken for a dead peer.
//
// Every socket call in this file funnels through a deterministic, seeded
// fault injector (WireFaults) so the chaos tests, the CI chaos lane and the
// faulty wire bench can subject BOTH ends of a connection to short reads and
// writes, synthetic EINTR storms, delayed flushes and mid-stream connection
// kills without any cooperation from the peer. Disabled (the default) it is
// one relaxed atomic load per I/O call — nothing on the fault-free hot path.

#ifndef PRIVBAYES_SERVE_WIRE_H_
#define PRIVBAYES_SERVE_WIRE_H_

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace privbayes {

/// Longest accepted wire line. Protocol lines are tiny and the SAMPLEB
/// name header is bounded by the schema width; anything longer is a broken
/// or hostile peer, and the cap keeps one connection from growing its
/// buffer without bound.
inline constexpr size_t kMaxWireLine = size_t{1} << 20;

/// Longest accepted binary frame payload. A row frame is at most 65535 rows
/// × num_attrs × 2 bytes, so 64 MB clears any realistic schema while still
/// bounding what a hostile length prefix can make the peer allocate.
inline constexpr size_t kMaxWireFrame = size_t{1} << 26;

/// Binary frame types (first payload byte).
inline constexpr uint8_t kWireFrameSchema = 0x00;  ///< u16 ncols, ncols × u16 cardinality
inline constexpr uint8_t kWireFrameRows = 0x01;    ///< u16 nrows, packed columns
inline constexpr uint8_t kWireFrameEnd = 0x02;     ///< empty; stream completed
inline constexpr uint8_t kWireFrameError = 0x03;   ///< UTF-8 message; stream aborted

/// Row-frame row-count ceiling (the count is a u16).
inline constexpr int kMaxWireFrameRows = 65535;

// ---------------------------------------------------------------------------
// Deterministic wire fault injection.
//
// Armed via PRIVBAYES_WIRE_FAULTS=<seed>:<rate> (rate = per-socket-call
// probability in [0,1]) or programmatically from tests/benches. Each recv()
// and send() in wire.cc first consults the injector: with probability `rate`
// the call is perturbed by one of four fault kinds, chosen by a SplitMix64
// stream over (seed, global call index) — the decision sequence is a pure
// function of the seed and the call order, so a failing chaos run replays:
//
//   * kEintr      — the call returns -1/EINTR without touching the socket
//                   (the retry loops must treat it as "try again");
//   * kShortIo    — the call is capped to 1–8 bytes (short reads/writes:
//                   every framing path must reassemble across fragments);
//   * kDelay      — the thread sleeps 0.2–2 ms first (delayed flushes,
//                   reordered wakeups, deadline pressure);
//   * kKill       — the connection is shutdown(SHUT_RDWR) first: the call
//                   and everything after it sees a torn stream / RST, the
//                   same surface a crashed peer or a dropped link presents.
//
// Faults perturb scheduling and connection lifetime but never payload bytes:
// a stream that completes is bit-identical to the fault-free stream, which
// is what lets clients retry whole requests safely.

struct WireFaultStats {
  uint64_t calls = 0;        ///< injector consultations while armed
  uint64_t eintr = 0;        ///< synthetic EINTR returns
  uint64_t short_io = 0;     ///< reads/writes capped short
  uint64_t delays = 0;       ///< injected sleeps
  uint64_t kills = 0;        ///< connections torn down
};

class WireFaults {
 public:
  /// True when a non-zero injection rate is armed. One relaxed load —
  /// callers on the fault-free path pay nothing else.
  static bool enabled() {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Arms the injector (rate clamped to [0,1]; 0 disarms). Overrides any
  /// environment configuration until Disable()/ResetFromEnv().
  static void ConfigureForTesting(uint64_t seed, double rate);

  /// Disarms the injector.
  static void Disable();

  /// Re-reads PRIVBAYES_WIRE_FAULTS ("<seed>:<rate>"); unset, empty or a
  /// zero rate disarms, and any other malformed text throws
  /// std::invalid_argument naming the variable. Called once automatically
  /// at load time when the variable is set.
  static void ResetFromEnv();

  static WireFaultStats stats();
  static void ResetStats();

  /// RAII guard: tests whose assertions are incompatible with injected
  /// faults (signal-driven EINTR tests, exact timing tests) disable the
  /// injector for a scope and restore the previous arming after.
  class ScopedDisable {
   public:
    ScopedDisable();
    ~ScopedDisable();
    ScopedDisable(const ScopedDisable&) = delete;
    ScopedDisable& operator=(const ScopedDisable&) = delete;

   private:
    uint64_t saved_seed_;
    double saved_rate_;
  };

 private:
  friend ssize_t FaultyRecv(int fd, void* buf, size_t len);
  friend ssize_t FaultySend(int fd, const void* buf, size_t len);

  enum class Action { kNone, kEintr, kShortIo, kDelay, kKill };
  static Action Decide(size_t& len);

  static std::atomic<bool> armed_;
};

/// recv()/send() with the fault injector applied (see WireFaults). These are
/// the ONLY socket data calls the serve wire layer makes — both ends of
/// every connection run through them, so arming the injector perturbs
/// client and server symmetrically.
ssize_t FaultyRecv(int fd, void* buf, size_t len);
ssize_t FaultySend(int fd, const void* buf, size_t len);

/// Receive-side buffer state. Consumed bytes are tracked by a cursor and
/// compacted in bulk, so extracting k lines from one recv chunk is O(chunk)
/// rather than O(k·chunk) — pipelined request lines on the server and
/// wrapped QUERY cells on the client depend on it.
/// Line reads and exact binary reads share the buffer, so a frame stream
/// may follow a text line on the same connection.
struct WireBuffer {
  std::string data;
  size_t pos = 0;  // start of unconsumed bytes
};

/// ExtractWireLine result: a complete line was produced, more bytes are
/// needed (the buffer was compacted so the caller can append a recv chunk),
/// or the pending line exceeds the cap (hostile/broken peer).
enum class WireExtract { kLine, kNeedMore, kOverflow };

/// Pure-buffer line extraction — the scan/compact half of ReadWireLine with
/// no socket call, for non-blocking readers (the epoll session loop) that
/// own their own recv. On kLine, `line` holds the next '\n'-terminated line
/// (terminator removed, trailing '\r' stripped) and the buffer cursor has
/// advanced past it.
WireExtract ExtractWireLine(WireBuffer& buf, std::string& line,
                            size_t max_line = kMaxWireLine);

/// Reads one '\n'-terminated line from `fd` (terminator removed, trailing
/// '\r' stripped), buffering extra bytes in `buf` across calls. Returns
/// nullopt on EOF/reset/receive-timeout, or when a line exceeds `max_line`
/// bytes. Interrupted reads (EINTR) are retried.
std::optional<std::string> ReadWireLine(int fd, WireBuffer& buf,
                                        size_t max_line = kMaxWireLine);

/// Reads exactly `len` bytes into `dst`, draining `buf` first. Returns
/// false when the peer is gone (or a receive timeout fires) before `len`
/// bytes arrive. Interrupted reads (EINTR) are retried.
bool ReadWireExact(int fd, WireBuffer& buf, void* dst, size_t len);

/// Outcome of a timeout-aware read: completed, connection gone (EOF, reset,
/// oversized line — everything the untimed readers fold into failure), or
/// the inactivity timeout elapsed with the connection still open.
enum class WireIoStatus { kOk, kEof, kTimeout };

/// ReadWireLine with an inactivity timeout: each recv waits at most
/// `timeout_ms` for readability (poll; < 0 waits forever, matching
/// ReadWireLine). kTimeout distinguishes "server accepted but never
/// answered" from a dead peer so clients can surface a typed timeout.
WireIoStatus ReadWireLineTimeout(int fd, WireBuffer& buf, std::string& line,
                                 long timeout_ms,
                                 size_t max_line = kMaxWireLine);

/// ReadWireExact with the same inactivity timeout semantics.
WireIoStatus ReadWireExactTimeout(int fd, WireBuffer& buf, void* dst,
                                  size_t len, long timeout_ms);

/// Writes all `len` bytes to `fd` (send with MSG_NOSIGNAL, retrying short
/// and interrupted writes). Returns false when the peer is gone.
bool WriteWireBytes(int fd, const char* data, size_t len);

/// Little-endian scalar append / store / load for frame encoding.
void AppendU16(std::string& out, uint16_t v);
void AppendU32(std::string& out, uint32_t v);
void StoreU16(char* p, uint16_t v);
void StoreU32(char* p, uint32_t v);
uint16_t LoadU16(const char* p);
uint32_t LoadU32(const char* p);

}  // namespace privbayes

#endif  // PRIVBAYES_SERVE_WIRE_H_
