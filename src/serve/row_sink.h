// Pluggable consumers for streamed synthetic rows.
//
// SamplingService produces a batch as a sequence of shard-aligned columnar
// chunks rather than one giant Dataset, so a million-row request never
// needs a million rows resident per client: each chunk is handed to a
// RowSink and freed. Two sinks cover the library and wire cases — a
// columnar DatasetSink that reassembles the full batch (what library
// callers and tests want) and a BinaryRowSink that packs chunks straight
// into an std::ostream (what the TCP front-end streams to clients). A CSV
// consumer decodes the binary stream and renders it with data/csv.h's
// WriteCsv.

#ifndef PRIVBAYES_SERVE_ROW_SINK_H_
#define PRIVBAYES_SERVE_ROW_SINK_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace privbayes {

/// Receives one batch: Begin once, Chunk for each row block in row order
/// (every chunk is a Dataset over the schema passed to Begin), End once.
/// Chunks of one batch arrive sequentially from one thread.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void Begin(const Schema& /*schema*/) {}
  virtual void Chunk(const Dataset& rows) = 0;
  virtual void End() {}
};

/// Reassembles the streamed chunks into one columnar Dataset.
class DatasetSink : public RowSink {
 public:
  void Begin(const Schema& schema) override;
  void Chunk(const Dataset& rows) override;
  void End() override;

  /// The completed batch; valid after End.
  Dataset& dataset() { return result_; }
  const Dataset& dataset() const { return result_; }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  Dataset result_;
};

/// Renders chunks as the length-prefixed binary frame stream of serve/wire.h
/// (the SAMPLEB response body): Begin writes one schema frame (per-column
/// cardinalities — both ends derive the packed bit widths from them), each
/// Chunk writes row frames of at most kMaxWireFrameRows rows, End writes the
/// end frame. A row frame is sized once, every column is packed in place by
/// the codec of data/packed_codec.h, and the frame goes out, length prefix
/// included, in one write. Abort writes an error frame instead — the in-band
/// failure marker a client must surface as a failed request. The stream
/// must outlive the sink.
class BinaryRowSink : public RowSink {
 public:
  explicit BinaryRowSink(std::ostream& out) : out_(&out) {}

  void Begin(const Schema& schema) override;
  void Chunk(const Dataset& rows) override;
  void End() override;

  /// Terminates the stream with an error frame carrying `message`.
  void Abort(const std::string& message);

  int64_t rows_written() const { return rows_written_; }

 private:
  void WriteFrame(const std::string& payload);  // prefixes its u32 length

  std::ostream* out_;
  std::vector<uint32_t> log2_bits_;  // packed width per column
  int rows_per_frame_ = 1;  // bounded by u16 count AND kMaxWireFrame bytes
  std::string frame_;       // reused row frame, length prefix included
  int64_t rows_written_ = 0;
};

}  // namespace privbayes

#endif  // PRIVBAYES_SERVE_ROW_SINK_H_
