#include "data/dataset.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace privbayes {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_attrs());
}

Dataset::Dataset(Schema schema, int64_t num_rows)
    : schema_(std::move(schema)), num_rows_(num_rows) {
  PB_THROW_IF(num_rows < 0, "negative row count");
  columns_.assign(schema_.num_attrs(),
                  std::vector<Value>(static_cast<size_t>(num_rows), 0));
}

Dataset::Dataset(const Dataset& other)
    : schema_(other.schema_),
      num_rows_(other.num_rows_),
      out_of_core_(other.out_of_core_),
      columns_(other.columns_) {
  std::lock_guard<std::mutex> lock(other.store_mu_);
  store_ = other.store_;
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  num_rows_ = other.num_rows_;
  out_of_core_ = other.out_of_core_;
  columns_ = other.columns_;
  std::shared_ptr<const ColumnStore> theirs;
  {
    std::lock_guard<std::mutex> lock(other.store_mu_);
    theirs = other.store_;
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  store_ = std::move(theirs);
  return *this;
}

Dataset::Dataset(Dataset&& other) noexcept
    : schema_(std::move(other.schema_)),
      num_rows_(other.num_rows_),
      out_of_core_(other.out_of_core_),
      columns_(std::move(other.columns_)) {
  std::lock_guard<std::mutex> lock(other.store_mu_);
  store_ = std::move(other.store_);
}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  num_rows_ = other.num_rows_;
  out_of_core_ = other.out_of_core_;
  columns_ = std::move(other.columns_);
  std::shared_ptr<const ColumnStore> theirs;
  {
    std::lock_guard<std::mutex> lock(other.store_mu_);
    theirs = std::move(other.store_);
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  store_ = std::move(theirs);
  return *this;
}

Dataset Dataset::FromColumns(Schema schema,
                             std::vector<std::vector<Value>> columns) {
  Dataset out(std::move(schema));
  PB_THROW_IF(columns.size() != static_cast<size_t>(out.num_attrs()),
              "column count " << columns.size() << " != " << out.num_attrs());
  size_t n = columns.empty() ? 0 : columns[0].size();
  for (int c = 0; c < out.num_attrs(); ++c) {
    PB_THROW_IF(columns[c].size() != n,
                "column '" << out.schema_.attr(c).name << "' has "
                           << columns[c].size() << " rows, expected " << n);
    // Compare as int: a cardinality of exactly 65536 is schema-legal but
    // would wrap to 0 as a Value.
    int card = out.schema_.Cardinality(c);
    // One max-reduction per column (it vectorizes) instead of a branch per
    // cell: DecodeToOriginal runs this on every served chunk.
    Value max_value = 0;
    for (Value v : columns[c]) max_value = std::max(max_value, v);
    PB_THROW_IF(static_cast<int>(max_value) >= card,
                "value " << max_value << " out of domain for attribute '"
                         << out.schema_.attr(c).name << "'");
  }
  out.columns_ = std::move(columns);
  out.num_rows_ = static_cast<int64_t>(n);
  return out;
}

Dataset Dataset::FromPackedFile(const std::string& path) {
  std::shared_ptr<const ColumnBackend> backend = ColumnBackend::Open(path);
  Dataset out(backend->schema());
  out.num_rows_ = backend->num_rows();
  out.out_of_core_ = true;
  out.columns_.clear();
  // The store is the dataset: build it eagerly so every copy shares the one
  // mapping, and so store() below never rebuilds (there are no resident
  // columns to rebuild from).
  out.store_ = std::make_shared<const ColumnStore>(std::move(backend));
  return out;
}

const std::vector<Value>& Dataset::column(int col) const {
  PB_THROW_IF(out_of_core_,
              "column(): raw columns are not resident in an out-of-core "
              "dataset; decode store()'s packed slices with UnpackValues");
  return columns_[col];
}

void Dataset::Set(int64_t row, int col, Value v) {
  PB_THROW_IF(out_of_core_, "Set(): out-of-core datasets are immutable");
  PB_CHECK_MSG(v < schema_.Cardinality(col),
               "value " << v << " out of domain for attribute '"
                        << schema_.attr(col).name << "'");
  columns_[col][row] = v;
  InvalidateStore();
}

void Dataset::AppendRow(std::span<const Value> row) {
  PB_THROW_IF(out_of_core_, "AppendRow(): out-of-core datasets are immutable");
  PB_THROW_IF(static_cast<int>(row.size()) != num_attrs(),
              "row width " << row.size() << " != " << num_attrs());
  for (int c = 0; c < num_attrs(); ++c) {
    PB_CHECK_MSG(row[c] < schema_.Cardinality(c),
                 "value out of domain for attribute '" << schema_.attr(c).name
                                                       << "'");
    columns_[c].push_back(row[c]);
  }
  ++num_rows_;
  InvalidateStore();
}

void Dataset::InvalidateStore() {
  std::lock_guard<std::mutex> lock(store_mu_);
  store_.reset();
}

std::shared_ptr<const ColumnStore> Dataset::store() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (!store_) {
    store_ = std::make_shared<const ColumnStore>(schema_, columns_, num_rows_);
  }
  return store_;
}

ProbTable Dataset::JointCounts(std::span<const int> attrs) const {
  std::vector<GenAttr> gattrs;
  gattrs.reserve(attrs.size());
  for (int a : attrs) gattrs.push_back(GenAttr{a, 0});
  return JointCountsGeneralized(gattrs);
}

ProbTable Dataset::MakeCountsTable(std::span<const GenAttr> gattrs) const {
  std::vector<int> vars, cards;
  vars.reserve(gattrs.size());
  cards.reserve(gattrs.size());
  for (const GenAttr& g : gattrs) {
    PB_THROW_IF(g.attr < 0 || g.attr >= num_attrs(),
                "attribute index " << g.attr << " out of range");
    vars.push_back(GenVarId(g));
    cards.push_back(schema_.CardinalityAt(g.attr, g.level));
  }
  return ProbTable(std::move(vars), std::move(cards));
}

ProbTable Dataset::JointCountsGeneralized(
    std::span<const GenAttr> gattrs) const {
  ProbTable counts = MakeCountsTable(gattrs);
  if (gattrs.empty()) {
    counts[0] = num_rows_;
    return counts;
  }
  store()->AccumulateCounts(gattrs, counts.values());
  return counts;
}

ProbTable Dataset::JointCountsGeneralizedNaive(
    std::span<const GenAttr> gattrs) const {
  PB_THROW_IF(out_of_core_,
              "naive counting needs resident columns; out-of-core datasets "
              "count through the ColumnStore engine");
  ProbTable counts = MakeCountsTable(gattrs);
  if (gattrs.empty()) {
    counts[0] = static_cast<double>(num_rows_);
    return counts;
  }
  // Row-major flat index accumulated column by column (last var stride 1).
  const size_t n = static_cast<size_t>(num_rows_);
  std::vector<size_t> flat(n, 0);
  for (const GenAttr& g : gattrs) {
    const std::vector<Value>& col = columns_[g.attr];
    const TaxonomyTree& tax = schema_.attr(g.attr).taxonomy;
    size_t card = static_cast<size_t>(schema_.CardinalityAt(g.attr, g.level));
    if (g.level == 0) {
      for (size_t r = 0; r < n; ++r) flat[r] = flat[r] * card + col[r];
    } else {
      for (size_t r = 0; r < n; ++r) {
        flat[r] = flat[r] * card + tax.Generalize(col[r], g.level);
      }
    }
  }
  std::vector<double>& cells = counts.values();
  for (size_t r = 0; r < n; ++r) cells[flat[r]] += 1.0;
  return counts;
}

std::pair<Dataset, Dataset> Dataset::Split(double train_fraction,
                                           Rng& rng) const {
  PB_THROW_IF(train_fraction <= 0 || train_fraction >= 1,
              "train fraction must be in (0,1)");
  PB_THROW_IF(out_of_core_, "Split(): out-of-core datasets cannot be split");
  std::vector<int> order(static_cast<size_t>(num_rows_));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  int n_train =
      static_cast<int>(train_fraction * static_cast<double>(num_rows_));
  n_train = std::clamp<int>(n_train, 1, static_cast<int>(num_rows_) - 1);
  // Gather straight out of the shuffled order — no intermediate index copies.
  std::span<const int> all(order);
  return {SelectRows(all.first(n_train)), SelectRows(all.subspan(n_train))};
}

Dataset Dataset::SelectRows(std::span<const int> rows) const {
  PB_THROW_IF(out_of_core_,
              "SelectRows(): out-of-core datasets cannot be subset");
  // One bounds pass up front; the per-column gathers below are unchecked.
  for (int r : rows) {
    PB_THROW_IF(r < 0 || r >= num_rows_,
                "row index " << r << " out of range [0, " << num_rows_ << ")");
  }
  Dataset out(schema_);
  out.num_rows_ = static_cast<int64_t>(rows.size());
  for (int c = 0; c < num_attrs(); ++c) {
    const Value* src = columns_[c].data();
    std::vector<Value>& dst = out.columns_[c];
    dst.reserve(rows.size());
    for (int r : rows) dst.push_back(src[r]);
  }
  return out;
}

}  // namespace privbayes
