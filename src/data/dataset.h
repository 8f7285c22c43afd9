// Column-major discrete dataset (the sensitive table D of the paper).
//
// Rows are individuals; columns are attributes holding discrete Values in
// [0, cardinality). Column-major storage makes joint-distribution counting —
// the hot loop of network learning — cache-friendly. Counting itself runs on
// a lazily built, mutation-invalidated ColumnStore snapshot (every column
// and generalized level bit-packed, row-sharded kernels); see
// data/column_store.h.

#ifndef PRIVBAYES_DATA_DATASET_H_
#define PRIVBAYES_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/attribute.h"
#include "data/column_store.h"
#include "prob/prob_table.h"

namespace privbayes {

/// A discrete table of n rows over a Schema.
class Dataset {
 public:
  /// An empty dataset over an empty schema (placeholder; assign before use).
  Dataset() = default;

  /// Creates an empty (0-row) dataset over `schema`.
  explicit Dataset(Schema schema);

  /// Creates a zero-filled dataset with `num_rows` rows.
  Dataset(Schema schema, int64_t num_rows);

  // Copies share the immutable ColumnStore snapshot (if built); moves steal
  // it. Hand-written because the store cache is guarded by a mutex.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&& other) noexcept;
  Dataset& operator=(Dataset&& other) noexcept;

  /// Adopts whole columns (one vector per attribute, equal lengths) without
  /// copying. Values are range-checked once per column — this is the entry
  /// point for the sampler's columnar row writer.
  static Dataset FromColumns(Schema schema,
                             std::vector<std::vector<Value>> columns);

  /// Maps a packed dataset file (data/packed_file.h) read-only and wraps it
  /// as an out-of-core dataset: the schema comes from the file header, the
  /// ColumnStore is backed by the mapping, and no raw column is ever
  /// materialized. Counting and sampling work unchanged; per-cell accessors
  /// (at/column/Set/AppendRow/Split/SelectRows and the naive counting pass)
  /// require resident columns and throw. Throws on open/parse failure.
  static Dataset FromPackedFile(const std::string& path);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_attrs() const { return schema_.num_attrs(); }

  /// True when the rows live in a mapped packed file rather than resident
  /// columns (see FromPackedFile).
  bool out_of_core() const { return out_of_core_; }

  /// Cell accessors. No bounds checks in release hot paths beyond PB_CHECK
  /// in debug-sensitive entry points; `Set` validates the value range.
  /// Resident (non-out-of-core) datasets only.
  Value at(int64_t row, int col) const { return columns_[col][row]; }
  void Set(int64_t row, int col, Value v);

  /// Whole column (length num_rows()). Resident datasets only; out-of-core
  /// consumers decode store()'s packed slices with UnpackValues
  /// (data/packed_codec.h) instead.
  const std::vector<Value>& column(int col) const;

  /// Appends one row given values in schema order.
  void AppendRow(std::span<const Value> row);

  /// Empirical joint COUNTS over the given attributes (variable ids are
  /// GenVarId(attr), i.e. level 0). Call Normalize() on the result for the
  /// empirical distribution; every cell is then a multiple of 1/n, the
  /// property the F dynamic program relies on (§4.4).
  ProbTable JointCounts(std::span<const int> attrs) const;

  /// Empirical joint counts over generalized attributes: each GenAttr
  /// contributes its taxonomy-level-generalized value. Variable ids are
  /// GenVarId(g). Used by the hierarchical algorithm (§5.2). Runs on the
  /// ColumnStore engine (popcount kernel for all-binary sets, packed radix
  /// kernel otherwise).
  ProbTable JointCountsGeneralized(std::span<const GenAttr> gattrs) const;

  /// The seed's reference counting pass (O(n) scratch, per-row Generalize).
  /// Kept for the equivalence tests and benchmarks; returns counts
  /// bit-identical to JointCountsGeneralized.
  ProbTable JointCountsGeneralizedNaive(std::span<const GenAttr> gattrs) const;

  /// The columnar snapshot counting runs on; built on first use and shared
  /// until the next mutation. Returned by shared_ptr so a counting pass
  /// keeps its snapshot alive even if another thread mutates (and thereby
  /// invalidates) the dataset mid-pass. Also exposed for engine-level tests
  /// and for prebuilding the snapshot outside timed regions.
  std::shared_ptr<const ColumnStore> store() const;

  /// Deterministically splits rows into (train, test) with `train_fraction`
  /// of rows in train, after a seeded shuffle (paper §6.1 uses 80/20).
  std::pair<Dataset, Dataset> Split(double train_fraction, Rng& rng) const;

  /// Returns a copy containing only the given rows (bounds-checked once).
  Dataset SelectRows(std::span<const int> rows) const;

 private:
  // Builds the ProbTable shell (vars/cards) for a counting call.
  ProbTable MakeCountsTable(std::span<const GenAttr> gattrs) const;
  void InvalidateStore();

  Schema schema_;
  int64_t num_rows_ = 0;
  bool out_of_core_ = false;
  std::vector<std::vector<Value>> columns_;

  // Lazily built snapshot; immutable once published, reset on mutation.
  mutable std::mutex store_mu_;
  mutable std::shared_ptr<const ColumnStore> store_;
};

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_DATASET_H_
