#include "data/dataset.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace privbayes {

Dataset::Dataset() {
  static const std::shared_ptr<const Rows> empty =
      MakeRows(0, std::make_shared<const Columns>());
  rows_ = empty;
}

Dataset::Dataset(Schema schema, std::shared_ptr<const Rows> rows)
    : schema_(std::move(schema)), rows_(std::move(rows)) {}

std::shared_ptr<Dataset::Rows> Dataset::MakeRows(
    int64_t n, std::shared_ptr<const Columns> columns) {
  auto rows = std::make_shared<Rows>();
  rows->n = n;
  rows->columns = std::move(columns);
  return rows;
}

Dataset Dataset::FromColumns(Schema schema, Columns columns) {
  PB_THROW_IF(columns.size() != static_cast<size_t>(schema.num_attrs()),
              "column count " << columns.size() << " != "
                              << schema.num_attrs());
  size_t n = columns.empty() ? 0 : columns[0].size();
  for (int c = 0; c < schema.num_attrs(); ++c) {
    PB_THROW_IF(columns[c].size() != n,
                "column '" << schema.attr(c).name << "' has "
                           << columns[c].size() << " rows, expected " << n);
    // Compare as int: a cardinality of exactly 65536 is schema-legal but
    // would wrap to 0 as a Value.
    int card = schema.Cardinality(c);
    // One max-reduction per column (it vectorizes) instead of a branch per
    // cell: the sampler builds every served chunk through here.
    Value max_value = 0;
    for (Value v : columns[c]) max_value = std::max(max_value, v);
    PB_THROW_IF(static_cast<int>(max_value) >= card,
                "value " << max_value << " out of domain for attribute '"
                         << schema.attr(c).name << "'");
  }
  return Dataset(std::move(schema),
                 MakeRows(static_cast<int64_t>(n),
                          std::make_shared<const Columns>(std::move(columns))));
}

Dataset Dataset::FromPackedFile(const std::string& path) {
  std::shared_ptr<const ColumnBackend> backend = ColumnBackend::Open(path);
  Schema schema = backend->schema();
  std::shared_ptr<Rows> rows = MakeRows(backend->num_rows(), nullptr);
  // The mapping is the snapshot: preset it before the rows are shared, so
  // store() never builds one (there are no resident columns to build from).
  rows->store = std::make_shared<const ColumnStore>(std::move(backend));
  return Dataset(std::move(schema), std::move(rows));
}

Dataset Dataset::WithSchema(Schema schema) const {
  PB_THROW_IF(out_of_core(),
              "WithSchema(): a mapped packed dataset has no resident columns "
              "to rebind");
  PB_THROW_IF(schema.num_attrs() != num_attrs(),
              "WithSchema(): width " << schema.num_attrs() << " != "
                                     << num_attrs());
  for (int c = 0; c < num_attrs(); ++c) {
    PB_THROW_IF(schema.Cardinality(c) != schema_.Cardinality(c),
                "WithSchema(): attribute '"
                    << schema.attr(c).name << "' has cardinality "
                    << schema.Cardinality(c) << ", the data "
                    << schema_.Cardinality(c));
  }
  return Dataset(std::move(schema), MakeRows(rows_->n, rows_->columns));
}

const std::vector<Value>& Dataset::column(int col) const {
  PB_THROW_IF(out_of_core(),
              "column(): raw columns are not resident in an out-of-core "
              "dataset; decode store()'s packed slices with UnpackValues");
  return (*rows_->columns)[col];
}

std::shared_ptr<const ColumnStore> Dataset::store() const {
  const Rows& rows = *rows_;
  std::call_once(rows.built, [&] {
    if (!rows.store) {
      rows.store =
          std::make_shared<const ColumnStore>(schema_, *rows.columns, rows.n);
    }
  });
  return rows.store;
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
    counts[0] = static_cast<double>(num_rows());
    return counts;
  }
  store()->AccumulateCounts(gattrs, counts.values());
  return counts;
}

ProbTable Dataset::JointCountsGeneralizedNaive(
    std::span<const GenAttr> gattrs) const {
  PB_THROW_IF(out_of_core(),
              "naive counting needs resident columns; out-of-core datasets "
              "count through the ColumnStore engine");
  ProbTable counts = MakeCountsTable(gattrs);
  if (gattrs.empty()) {
    counts[0] = static_cast<double>(num_rows());
    return counts;
  }
  // Row-major flat index accumulated column by column (last var stride 1).
  const size_t n = static_cast<size_t>(num_rows());
  std::vector<size_t> flat(n, 0);
  for (const GenAttr& g : gattrs) {
    const std::vector<Value>& col = column(g.attr);
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
  PB_THROW_IF(out_of_core(), "Split(): out-of-core datasets cannot be split");
  const int64_t n = num_rows();
  PB_THROW_IF(n < 2, "Split(): needs at least 2 rows, got " << n);
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  int n_train = static_cast<int>(train_fraction * static_cast<double>(n));
  n_train = std::clamp<int>(n_train, 1, static_cast<int>(n) - 1);
  // Gather straight out of the shuffled order — no intermediate index copies.
  std::span<const int> all(order);
  return {SelectRows(all.first(n_train)), SelectRows(all.subspan(n_train))};
}

Dataset Dataset::SelectRows(std::span<const int> rows) const {
  PB_THROW_IF(out_of_core(),
              "SelectRows(): out-of-core datasets cannot be subset");
  // One bounds pass up front; the per-column gathers below are unchecked.
  const int64_t n = num_rows();
  for (int r : rows) {
    PB_THROW_IF(r < 0 || r >= n,
                "row index " << r << " out of range [0, " << n << ")");
  }
  // The source's values are in domain, so the gathered columns skip
  // FromColumns' range check.
  Columns columns(static_cast<size_t>(num_attrs()));
  for (int c = 0; c < num_attrs(); ++c) {
    const Value* src = column(c).data();
    std::vector<Value>& dst = columns[c];
    dst.reserve(rows.size());
    for (int r : rows) dst.push_back(src[r]);
  }
  return Dataset(schema_,
                 MakeRows(static_cast<int64_t>(rows.size()),
                          std::make_shared<const Columns>(std::move(columns))));
}

}  // namespace privbayes
