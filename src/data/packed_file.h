// Versioned on-disk format for bit-packed column stores ("packed files").
//
// The ColumnStore's minimal-bit-width packed words are already the
// bandwidth-optimal layout the counting kernels consume, so the file format
// is exactly that layout plus a self-describing header: schema (names,
// kinds, numeric ranges, full taxonomy leaf maps) and one 64-byte-aligned
// word region per (attribute, taxonomy level) "slice". A packed file opened
// through ColumnBackend::Open (data/column_backend.h) serves counting directly
// from the mapping — no rows are ever materialized — which is what lets a
// 100M-row dataset fit and serve at a fraction of its raw size resident.
//
// Layout (all integers little-endian, fixed width):
//
//   [0]  magic            8 bytes  "PBPACKED"
//   [8]  version          u32      kPackedFormatVersion; readers reject
//                                  newer versions ("upgrade this binary")
//   [12] header_bytes     u32      size of everything before the payload
//   [16] generation       u64      producer-chosen identity of the file's
//                                  contents; becomes the ColumnStore
//                                  snapshot id (high bit set), so the
//                                  cross-run MarginalStore carries over
//                                  across processes mapping the same file
//   [24] num_rows         i64
//   [32] num_attrs        u32
//   [36] num_slices       u32      sum over attributes of taxonomy levels
//   [40] attribute table  variable (names, kinds, cards, leaf maps)
//   ...  slice table      num_slices × 24 bytes
//                         { u32 log2_bits, u32 reserved,
//                           u64 byte_offset, u64 word_count }
//   ...  payload          per-slice u64 word regions, each 64-byte aligned;
//                         bits past row num_rows−1 in the last word are
//                         ZERO (the packed kernels' tail-mask contract)
//
// Writing is streaming: PackedFileWriter computes the full layout up front
// (the row count must be known), then AppendRow packs one row into small
// per-slice buffers flushed by pwrite — peak memory is O(attrs × levels ×
// buffer), never O(rows). This is the ingest path of `privbayes_pack` for
// both CSV conversion and synthetic generation.

#ifndef PRIVBAYES_DATA_PACKED_FILE_H_
#define PRIVBAYES_DATA_PACKED_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/attribute.h"
#include "data/packed_codec.h"

namespace privbayes {

inline constexpr char kPackedMagic[8] = {'P', 'B', 'P', 'A',
                                         'C', 'K', 'E', 'D'};
inline constexpr uint32_t kPackedFormatVersion = 1;

/// Word geometry of one (attribute, level) slice inside a packed file.
struct PackedSliceInfo {
  uint32_t log2_bits = 0;    ///< log2 of bits per value: 0..4 (1..16 bits)
  uint64_t byte_offset = 0;  ///< from file start; 64-byte aligned
  uint64_t word_count = 0;
};

/// Everything a reader learns from the header.
struct PackedFileHeader {
  Schema schema;
  int64_t num_rows = 0;
  uint64_t generation = 0;
  uint32_t version = 0;
  uint64_t header_bytes = 0;
  uint64_t file_bytes = 0;  ///< minimum file size the slice table implies
  std::vector<std::vector<PackedSliceInfo>> slices;  ///< [attr][level]
};

/// Lays out one slice per (attribute, level) of `schema` at `num_rows` rows,
/// each at its PackedLog2Bits width and 64-byte aligned, from byte `offset`
/// on (`slices` is [attr][level]). Returns the aligned end of the last
/// slice. The writer and the heap store share it, so both produce the
/// geometry ParsePackedHeader validates.
uint64_t LayoutPackedSlices(const Schema& schema, int64_t num_rows,
                            uint64_t offset,
                            std::vector<std::vector<PackedSliceInfo>>& slices);

/// Parses and validates a packed-file header from the first `size` bytes of
/// the file. Throws std::runtime_error with a descriptive message on bad
/// magic, unsupported (newer) version, truncation, or inconsistent geometry.
PackedFileHeader ParsePackedHeader(const uint8_t* bytes, size_t size);

/// Streaming writer: construct with the final row count, append exactly that
/// many rows, then Finish(). Throws std::runtime_error on I/O failure or a
/// row-count mismatch at Finish. Values are validated against the schema.
class PackedFileWriter {
 public:
  /// `generation` identifies the file's contents for cross-process marginal
  /// caching; 0 is replaced by 1. Creates/truncates `path`.
  PackedFileWriter(const std::string& path, const Schema& schema,
                   int64_t num_rows, uint64_t generation);
  ~PackedFileWriter();

  PackedFileWriter(const PackedFileWriter&) = delete;
  PackedFileWriter& operator=(const PackedFileWriter&) = delete;

  /// Packs one row (values in schema order, generalized into every taxonomy
  /// level). Rows must arrive in row order.
  void AppendRow(std::span<const Value> row);

  int64_t rows_written() const { return rows_written_; }

  /// Flushes buffered words (zero-padding the tail) and closes the file.
  /// Throws if fewer rows than promised were appended.
  void Finish();

 private:
  struct SliceWriter;

  void FlushSlice(SliceWriter& s);

  Schema schema_;
  int64_t num_rows_ = 0;
  int64_t rows_written_ = 0;
  int fd_ = -1;
  bool finished_ = false;
  std::vector<SliceWriter> slices_;  // attr-major, level-minor
};

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_PACKED_FILE_H_
