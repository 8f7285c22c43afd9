// Column-major discrete dataset (the sensitive table D of the paper).
//
// Rows are individuals; columns are attributes holding discrete Values in
// [0, cardinality). Column-major storage makes joint-distribution counting —
// the hot loop of network learning — cache-friendly.
//
// A Dataset is an immutable value: a Schema plus a shared pointer to its
// rows. The rows are built once (FromColumns, or FromPackedFile for a mapped
// file) and never change, so copies share them, and they also share the one
// ColumnStore snapshot (every column and generalized level bit-packed,
// row-sharded kernels; see data/column_store.h) that counting runs on. That
// snapshot is built at most once, on first use, whichever copy asks first;
// its id therefore names the rows for as long as any copy lives, which is
// what the cross-run MarginalStore keys on.

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

/// An immutable discrete table of n rows over a Schema. Copies are cheap
/// and share everything; a moved-from Dataset may only be assigned to or
/// destroyed.
class Dataset {
 public:
  /// An empty dataset over an empty schema (placeholder; assign before use).
  Dataset();

  /// Adopts whole columns (one vector per attribute, equal lengths) without
  /// copying. Values are range-checked once per column. This is the one way
  /// to build a dataset from values: CSV ingest, the generators, the
  /// encoders and the sampler all assemble columns first.
  static Dataset FromColumns(Schema schema,
                             std::vector<std::vector<Value>> columns);

  /// Maps a packed dataset file (data/packed_file.h) read-only and wraps it
  /// as an out-of-core dataset: the schema comes from the file header, the
  /// ColumnStore snapshot is the mapping itself, and no raw column is ever
  /// materialized. Counting and sampling work unchanged; the per-cell
  /// accessors (at/column/Split/SelectRows/WithSchema and the naive counting
  /// pass) need resident columns and throw. Throws on open/parse failure.
  static Dataset FromPackedFile(const std::string& path);

  /// The same rows under `schema`, which must give every attribute the
  /// cardinality it has now (only names and taxonomies may differ), so no
  /// value needs re-checking. The columns are shared, not copied; the result
  /// gets its own snapshot, because the packed levels follow the taxonomies.
  /// Throws on a width or cardinality mismatch and on out-of-core data.
  Dataset WithSchema(Schema schema) const;

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return rows_->n; }
  int num_attrs() const { return schema_.num_attrs(); }

  /// True when the rows live in a mapped packed file rather than resident
  /// columns (see FromPackedFile).
  bool out_of_core() const { return rows_->columns == nullptr; }

  /// Cell accessor, unchecked. Resident (non-out-of-core) datasets only.
  Value at(int64_t row, int col) const { return (*rows_->columns)[col][row]; }

  /// Whole column (length num_rows()). Resident datasets only; out-of-core
  /// consumers decode store()'s packed slices with UnpackValues
  /// (data/packed_codec.h) instead.
  const std::vector<Value>& column(int col) const;

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

  /// The columnar snapshot counting runs on: built on first use by whichever
  /// copy asks first (safe from many threads at once) and shared by every
  /// copy. The shared_ptr lets a snapshot outlive the datasets it came
  /// from. Also exposed for engine-level tests and for prebuilding the
  /// snapshot outside timed regions.
  std::shared_ptr<const ColumnStore> store() const;

  /// Deterministically splits rows into (train, test) with `train_fraction`
  /// of rows in train, after a seeded shuffle (paper §6.1 uses 80/20). Needs
  /// at least 2 rows, so both halves are non-empty.
  std::pair<Dataset, Dataset> Split(double train_fraction, Rng& rng) const;

  /// Returns a copy containing only the given rows (bounds-checked once).
  Dataset SelectRows(std::span<const int> rows) const;

 private:
  using Columns = std::vector<std::vector<Value>>;

  // What every copy of a dataset shares. Never changes once published,
  // except that `store` is written once, under `built`.
  struct Rows {
    int64_t n = 0;
    // One vector per attribute; null for a mapped packed file. Shared with
    // WithSchema rebinds.
    std::shared_ptr<const Columns> columns;
    mutable std::once_flag built;
    mutable std::shared_ptr<const ColumnStore> store;
  };

  Dataset(Schema schema, std::shared_ptr<const Rows> rows);
  static std::shared_ptr<Rows> MakeRows(
      int64_t n, std::shared_ptr<const Columns> columns);

  // Builds the ProbTable shell (vars/cards) for a counting call.
  ProbTable MakeCountsTable(std::span<const GenAttr> gattrs) const;

  Schema schema_;
  std::shared_ptr<const Rows> rows_;
};

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_DATASET_H_
