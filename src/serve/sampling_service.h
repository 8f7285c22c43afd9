// Batch sampling requests against a ModelRegistry.
//
// One request names a registered model and asks for `num_rows` synthetic
// rows under a caller-chosen seed; the service resolves a registry handle
// once (so a concurrent hot-swap cannot change the model mid-batch),
// samples the batch in shard-aligned chunks via the model's compiled
// NetworkSampler, decodes each chunk to the original schema, applies an
// optional column projection, and streams the chunks through a RowSink.
//
// Determinism is end-to-end: the rows are a pure function of (model, seed,
// num_rows) — bit-identical to SampleSyntheticData(model, num_rows,
// Rng(seed)) — regardless of chunking, the thread-pool size, or how many
// other requests run concurrently. That is what makes a served sample
// reproducible and auditable: a client can re-request with the same seed
// (or re-run locally against the archived model) and get the same table.
//
// Concurrency: every batch fans its chunk's shards out through the shared
// ThreadPool, which runs several callers' jobs at once; concurrent batches
// share its threads instead of queueing for them. An AdmissionGate only
// sheds batches beyond the active-batch cap.

#ifndef PRIVBAYES_SERVE_SAMPLING_SERVICE_H_
#define PRIVBAYES_SERVE_SAMPLING_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/admission.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/row_sink.h"

namespace privbayes {

/// Thrown when a request's deadline expires between chunks. The message
/// starts with "DEADLINE_EXCEEDED" so wire layers can relay it verbatim as
/// the in-band abort marker.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when the service sheds a request because too many batches are
/// already running (AdmissionGate's active-batch cap). The message starts
/// with "RESOURCE_EXHAUSTED" so clients can map the relayed ERR line to the
/// typed kShedding error and retry with backoff.
class ResourceExhausted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One batch request.
struct SampleRequest {
  std::string model;          ///< registry name
  int64_t num_rows = 0;
  uint64_t seed = 0;          ///< request seed; same seed ⇒ same rows
  /// Original-schema attribute indices to keep, in the given order; empty
  /// keeps every column.
  std::vector<int> columns;
  /// Wall-clock cutoff, checked between chunks: a batch that has not
  /// finished by then aborts with DeadlineExceeded instead of continuing to
  /// sample (and hold an admission slot) for a consumer that has already
  /// given up. Single-chunk batches always complete — the check runs only
  /// before sampling a *subsequent* chunk, so a deadline can never produce
  /// a half-useful empty stream for a request the service could finish in
  /// one piece.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Optional trace span: when set, the service charges its wall time to
  /// the span's parse (model resolve + projection), admission, sample, and
  /// write stages. Null = untraced; the request path is unchanged.
  Span* span = nullptr;
};

/// What one request did (for logging / stats endpoints).
struct SampleResult {
  int64_t rows = 0;
  int chunks = 0;
};

class SamplingService;

/// A batch in cursor form: one Step() samples, decodes, projects, and sinks
/// one chunk, so a caller that cannot accept unbounded output (an event loop
/// with a bounded per-session write queue) can pause between chunks without
/// holding a blocked thread. Construction performs everything Sample() did
/// before the first byte of output — model resolve, projection validation,
/// base-seed derivation, admission (throwing ResourceExhausted on shed) — so
/// every pre-stream error still reaches the caller before Begin. The
/// admission ticket is held for the cursor's lifetime and released either
/// when the final Step() writes End or on destruction (abort-safe: dropping
/// a half-driven cursor can never leak an admission slot).
class ChunkedSampler {
 public:
  ~ChunkedSampler() = default;
  ChunkedSampler(const ChunkedSampler&) = delete;
  ChunkedSampler& operator=(const ChunkedSampler&) = delete;

  /// Advances the stream: the first call writes Begin (and, for non-empty
  /// batches, the first chunk); the call that produces the final chunk also
  /// writes End and returns false. Returns true while more chunks remain.
  /// Throws DeadlineExceeded between chunks exactly as Sample() did.
  bool Step(RowSink& sink);

  /// Valid once Step has returned false: what the batch did.
  const SampleResult& result() const { return result_; }
  /// Rows already emitted (valid mid-stream, for abort diagnostics).
  int64_t rows_done() const { return row_; }
  int64_t num_rows() const { return num_rows_; }
  bool done() const { return done_; }

 private:
  friend class SamplingService;
  ChunkedSampler(const SamplingService* service, const SampleRequest& request);

  const SamplingService* service_;
  std::shared_ptr<const ServableModel> handle_;
  Schema out_schema_{std::vector<Attribute>{}};
  std::vector<int> keep_;
  bool identity_ = false;
  uint64_t base_seed_ = 0;
  int64_t num_rows_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  Span* span_ = nullptr;
  std::optional<AdmissionGate::Ticket> ticket_;
  int64_t row_ = 0;
  bool begun_ = false;
  bool done_ = false;
  SampleResult result_;
};

class SamplingService {
 public:
  /// `max_active_batches` caps how many batches may be RUNNING at once:
  /// beyond it Sample throws ResourceExhausted — overload shedding. 0 =
  /// never shed.
  explicit SamplingService(ModelRegistry* registry,
                           int chunk_rows = kDefaultChunkRows,
                           int max_active_batches = 0);

  /// Streams the batch through `sink`. Throws std::out_of_range for an
  /// unknown model, std::invalid_argument for a bad row count or column
  /// projection, and ResourceExhausted when the active-batch cap sheds the
  /// request (always before any row is produced).
  SampleResult Sample(const SampleRequest& request, RowSink& sink) const;

  /// Opens the batch as a resumable cursor (see ChunkedSampler). Throws
  /// exactly what Sample() throws before its first output byte.
  std::unique_ptr<ChunkedSampler> StartChunked(
      const SampleRequest& request) const;

  /// Convenience: collects the batch into a Dataset via DatasetSink.
  Dataset SampleToDataset(const SampleRequest& request) const;

  const AdmissionGate& admission() const { return admission_; }

  /// Default rows per streamed chunk — a multiple of
  /// NetworkSampler::kShardRows so chunk boundaries are shard boundaries.
  static constexpr int kDefaultChunkRows = 8 * NetworkSampler::kShardRows;

 private:
  friend class ChunkedSampler;
  ModelRegistry* registry_;
  mutable AdmissionGate admission_;
  int chunk_rows_;
};

}  // namespace privbayes

#endif  // PRIVBAYES_SERVE_SAMPLING_SERVICE_H_
