// Columnar counting engine behind Dataset::JointCountsGeneralized.
//
// The seed computed every empirical joint with a fresh O(n) scratch vector,
// one full pass per attribute, and a virtual-ish taxonomy lookup (two
// indirections plus a range check) per row per generalized attribute. Greedy
// network construction scores O(d²·|candidates|) attribute–parent pairs, each
// needing one such joint, so counting throughput bounds the whole build.
//
// A ColumnStore is an immutable snapshot of a dataset's columns packed
// once and reused by every counting call. It is the LAYOUT/API front of the
// engine — snapshot identity and kernel dispatch — while the packed words
// live in a ColumnBackend
// (data/column_backend.h): owned heap words for datasets built in-process,
// or a read-only mmap of a packed file (data/packed_file.h) for datasets
// bigger than RAM. Both hold exactly the same packed slices, so every path
// below is one path for both:
//
//   * binary attributes are bit-packed into 64-row words, and an all-binary
//     candidate set is counted by a per-arity kernel selected at runtime
//     (common/cpu.h): the scalar AND+popcount prefix tree, the AVX2/AVX-512
//     index-assembly kernels, or the AVX-512 vpopcntdq tree — see
//     data/count_kernels.h;
//   * every (attribute, taxonomy level) column is packed at the minimal
//     power-of-two bit width its cardinality needs (1/2/4/8/16 bits; most
//     Adult attributes fit 4), so hierarchical-encoding counts never call
//     Generalize() per row. Mixed or generalized candidate sets are counted
//     by one radix kernel: per 512-row block, each column is decoded by a
//     width-specialized loop and folded into an L1-resident u32 cell index
//     (idx = idx·card + v), then one histogram pass counts the block;
//   * per-thread reusable scratch buffers hold the integer histogram and the
//     index block is a stack array — no allocation on the counting path;
//   * for large n the rows are sharded across the persistent ThreadPool in
//     64-row units (so every shard and block starts word-aligned) with
//     per-shard partial histograms merged in shard order, so counts are
//     bit-identical across thread counts.
//
// Consumers that need Value columns (LogLikelihood, the out-of-core bench's
// materialization) decode the slices they read with the codec
// (data/packed_codec.h) into buffers of their own; the store keeps no
// decoded copy.
//
// Every kernel produces exactly the counts of the seed's naive pass (integer
// accumulation; no floating-point reordering). PRIVBAYES_SIMD=off forces the
// scalar popcount tree.

#ifndef PRIVBAYES_DATA_COLUMN_STORE_H_
#define PRIVBAYES_DATA_COLUMN_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/attribute.h"
#include "data/column_backend.h"

namespace privbayes {

class ColumnStore {
 public:
  /// Snapshots `columns` (one vector per attribute, each `num_rows` long)
  /// into a heap backend: packs every column and every generalized level at
  /// its minimal bit width, so reads never synchronize.
  ColumnStore(const Schema& schema,
              const std::vector<std::vector<Value>>& columns,
              int64_t num_rows);

  /// Wraps an existing backend (the out-of-core entry point — see
  /// ColumnBackend::Open). File-backed backends contribute their generation
  /// as the snapshot id (high bit set), so the cross-run MarginalStore
  /// carries over across processes mapping the same file.
  explicit ColumnStore(std::shared_ptr<const ColumnBackend> backend);

  int64_t num_rows() const { return num_rows_; }

  /// Process-unique identity of this snapshot. Heap snapshots draw from a
  /// process-global counter, assigned at construction and never reused. A
  /// Dataset builds its snapshot at most once and its copies share it, so
  /// the id names one immutable set of rows. File-backed snapshots use
  /// 2^63 | generation instead — stable across processes. This is the key
  /// the cross-run MarginalStore (data/marginal_store.h) hangs cached
  /// joints on.
  uint64_t snapshot_id() const { return snapshot_id_; }

  const ColumnBackend& backend() const { return *backend_; }

  /// True when the attribute qualifies for the packed all-binary kernels
  /// (cardinality exactly 2).
  bool packed(int attr) const { return binary_[attr] != 0; }

  /// Bit-packed words of a binary attribute: bit r of word r/64 is row r's
  /// value. Rows past num_rows() are zero.
  std::span<const uint64_t> packed_words(int attr) const {
    const PackedSlice s = backend_->Packed(attr, 0);
    return {s.words, s.num_words};
  }

  /// Bits per value of the minimal-width packing of (attr, level): 1, 2, 4,
  /// 8, or 16.
  int packed_bits(int attr, int level) const {
    return 1 << backend_->Packed(attr, level).log2_bits;
  }

  /// Accumulates the empirical joint counts over `gattrs` into `cells`
  /// (row-major over the generalized cardinalities, last attribute stride 1;
  /// `cells` must be zero-filled by the caller and exactly the right size).
  /// Dispatches to the popcount kernels for all-binary level-0 sets (kernel
  /// per common/cpu.h's active configuration) and to the radix kernel
  /// otherwise.
  void AccumulateCounts(std::span<const GenAttr> gattrs,
                        std::span<double> cells) const;

 private:
  void CountPacked(std::span<const GenAttr> gattrs,
                   std::span<double> cells) const;
  void CountRadix(std::span<const GenAttr> gattrs,
                  std::span<double> cells) const;

  int64_t num_rows_ = 0;
  uint64_t snapshot_id_ = 0;
  std::shared_ptr<const ColumnBackend> backend_;
  std::vector<uint8_t> binary_;          // per attr: cardinality == 2
  std::vector<std::vector<int>> cards_;  // cards_[attr][level]
};

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_COLUMN_STORE_H_
