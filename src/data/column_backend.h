// The packed words under a ColumnStore.
//
// The ColumnStore (data/column_store.h) is the layout/API front of the
// counting engine: snapshot identity and kernel dispatch. The bytes it
// counts live here, in exactly one representation: every (attribute,
// taxonomy level) slice bit-packed by the codec of data/packed_codec.h at
// the minimal power-of-two width its cardinality needs (1/2/4/8/16 bits),
// in word regions at 64-byte offsets with zeroed tail bits — the PBPACKED
// slice geometry of data/packed_file.h.
// The SAMPLEB wire packs its row-frame columns with the same codec, so a
// slice's leading bytes are the wire bytes of that column. Only the
// allocation source differs:
//
//   * heap — built from in-memory columns: every slice is packed once into
//     owned words. No raw or generalized Value column is kept, so a
//     snapshot is about a quarter of the raw size per level;
//   * mapped — a read-only memory mapping of a packed file. The words are
//     served straight from the page cache, so a 100M-row dataset counts and
//     fits at a fraction of its raw size in RSS. The file's generation
//     becomes the snapshot id, so MarginalStore entries keyed on it carry
//     over across processes mapping the same file.
//
// Every consumer reads the same geometry through the same decoder, which is
// why the two sources are bit-identical for counting, decoding, sampling
// and fitting — the property tests/packed_store_test.cc locks in.

#ifndef PRIVBAYES_DATA_COLUMN_BACKEND_H_
#define PRIVBAYES_DATA_COLUMN_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/attribute.h"
#include "data/packed_file.h"

namespace privbayes {

/// One (attribute, level) slice: row r sits at bits [r·b, r·b + b) of the
/// little-endian word stream, b = 2^log2_bits. Rows past num_rows are zero.
struct PackedSlice {
  const uint64_t* words = nullptr;
  uint64_t num_words = 0;
  uint32_t log2_bits = 0;  ///< log2 of bits per value: 0..4 (1..16 bits)

  /// The slice as the codec's byte stream (little-endian words).
  const uint8_t* bytes() const {
    return reinterpret_cast<const uint8_t*>(words);
  }
};

/// Where a ColumnStore's packed words live. Immutable once constructed; all
/// accessors are safe to call concurrently.
class ColumnBackend {
 public:
  /// Heap source: packs every (attr, level) slice of `columns` (one vector
  /// per attribute, each `num_rows` long, values in domain) into owned words.
  ColumnBackend(const Schema& schema,
                const std::vector<std::vector<Value>>& columns,
                int64_t num_rows);

  /// Mapped source: opens, validates and maps `path`. Throws
  /// std::runtime_error on open or map failure, bad magic, unsupported
  /// version, a truncated file (the payload the header promises must fit in
  /// the file), or a payload value outside its slice's cardinality. The
  /// mapping is advised for the counting access pattern (best-effort).
  static std::shared_ptr<const ColumnBackend> Open(const std::string& path);

  ~ColumnBackend();
  ColumnBackend(const ColumnBackend&) = delete;
  ColumnBackend& operator=(const ColumnBackend&) = delete;

  const Schema& schema() const { return header_.schema; }
  int64_t num_rows() const { return header_.num_rows; }
  int num_attrs() const { return header_.schema.num_attrs(); }
  /// File generation for mapped stores (nonzero), 0 for heap stores.
  uint64_t generation() const { return header_.generation; }
  /// Packed-file format version (mapped stores; 0 for heap stores).
  uint32_t version() const { return header_.version; }
  /// Bytes of the mapping (0 for heap stores).
  size_t mapped_bytes() const { return map_size_; }
  /// Bytes of owned words (0 for mapped stores: mapped pages count as
  /// resident only as the kernel pages them in).
  size_t resident_bytes() const { return owned_.size() * sizeof(uint64_t); }

  PackedSlice Packed(int attr, int level) const {
    const PackedSliceInfo& s = header_.slices[attr][level];
    return PackedSlice{reinterpret_cast<const uint64_t*>(base_ + s.byte_offset),
                       s.word_count, s.log2_bits};
  }

  /// Hints that the caller is done scanning (attr, level) for now and its
  /// pages may leave this process's resident set. No-op for heap stores; a
  /// mapped store drops the slice's page range back to the page cache
  /// (refaults are minor faults), which is what keeps peak RSS bounded by
  /// the working set of one counting pass instead of every slice ever
  /// touched. Purely a paging hint — never affects values.
  void ReleaseResidency(int attr, int level) const;

 private:
  ColumnBackend() = default;

  PackedFileHeader header_;  // heap: byte offsets are into owned_
  const uint8_t* base_ = nullptr;
  size_t map_size_ = 0;  // nonzero iff base_ is a mapping
  std::vector<uint64_t> owned_;
};

/// One column step of the radix kernel over rows [first_row, first_row +
/// rows) of a slice, `first_row` a multiple of 64: idx[i] = idx[i] · card +
/// value(first_row + i), or just the value for the leading column.
using PackedFoldFn = void (*)(const uint64_t* words, size_t first_row,
                              size_t rows, uint32_t card, uint32_t* idx);
PackedFoldFn SelectPackedFold(uint32_t log2_bits, bool leading);

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_COLUMN_BACKEND_H_
