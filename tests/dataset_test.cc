// Tests for data/attribute, data/dataset and data/csv.

#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/encoding.h"

namespace privbayes {
namespace {

Schema SmallSchema() {
  return Schema({Attribute::Binary("a"), Attribute::Categorical("b", 3),
                 Attribute::Continuous("c", 0, 16, 4)});
}

// Builds a dataset from rows given in schema order.
Dataset FromRows(const Schema& schema,
                 const std::vector<std::vector<Value>>& rows) {
  std::vector<std::vector<Value>> columns(
      static_cast<size_t>(schema.num_attrs()));
  for (const std::vector<Value>& row : rows) {
    for (int c = 0; c < schema.num_attrs(); ++c) columns[c].push_back(row[c]);
  }
  return Dataset::FromColumns(schema, std::move(columns));
}

TEST(Attribute, Factories) {
  Attribute bin = Attribute::Binary("x");
  EXPECT_EQ(bin.cardinality, 2);
  EXPECT_EQ(bin.kind, AttributeKind::kBinary);

  Attribute cat = Attribute::Categorical("y", 7);
  EXPECT_EQ(cat.cardinality, 7);
  EXPECT_TRUE(cat.taxonomy.IsFlat());

  Attribute cont = Attribute::Continuous("z", 0, 80, 16);
  EXPECT_EQ(cont.cardinality, 16);
  EXPECT_EQ(cont.taxonomy.num_levels(), 4);  // 16, 8, 4, 2
  EXPECT_THROW(Attribute::Continuous("bad", 5, 5, 16), std::invalid_argument);
  EXPECT_THROW(Attribute::Continuous("bad", 0, 1, 1), std::invalid_argument);
}

TEST(Schema, ValidationAndLookup) {
  Schema s = SmallSchema();
  EXPECT_EQ(s.num_attrs(), 3);
  EXPECT_EQ(s.FindAttr("b"), 1);
  EXPECT_EQ(s.FindAttr("missing"), -1);
  EXPECT_FALSE(s.AllBinary());
  EXPECT_NEAR(s.DomainBits(), 1 + std::log2(3.0) + 2, 1e-12);
  // Cardinality < 2 rejected.
  Attribute bad = Attribute::Categorical("bad", 3);
  bad.cardinality = 1;
  EXPECT_THROW(Schema({bad}), std::invalid_argument);
  // Taxonomy/cardinality mismatch rejected.
  Attribute mismatched = Attribute::Categorical("m", 3);
  mismatched.taxonomy = TaxonomyTree::Flat(4);
  EXPECT_THROW(Schema({mismatched}), std::invalid_argument);
}

TEST(GenVarId, PackUnpackRoundTrip) {
  GenAttr g{7, 3};
  EXPECT_EQ(GenAttrFromVarId(GenVarId(g)), g);
  EXPECT_EQ(GenVarId(7), GenVarId(GenAttr{7, 0}));
}

TEST(Dataset, CellAndColumnAccess) {
  Dataset d = FromRows(SmallSchema(), {{1, 2, 3}, {0, 1, 0}});
  EXPECT_EQ(d.num_rows(), 2);
  EXPECT_EQ(d.at(0, 1), 2);
  EXPECT_EQ(d.at(1, 1), 1);
  EXPECT_EQ(d.column(2), (std::vector<Value>{3, 0}));
  EXPECT_FALSE(d.out_of_core());
  Dataset placeholder;
  EXPECT_EQ(placeholder.num_rows(), 0);
  EXPECT_EQ(placeholder.num_attrs(), 0);
  placeholder = d;
  EXPECT_EQ(placeholder.column(0), d.column(0));
}

// Copies share the rows and the one snapshot however early they are made:
// the snapshot id names the rows, whichever copy counts first.
TEST(Dataset, CopiesShareOneSnapshot) {
  Dataset d = FromRows(SmallSchema(), {{0, 1, 0}, {1, 2, 3}, {1, 1, 0}});
  Dataset copy = d;  // before the first count
  Dataset moved_from = d;
  Dataset moved = std::move(moved_from);
  std::shared_ptr<const ColumnStore> snapshot = copy.store();
  EXPECT_EQ(d.store(), snapshot);
  EXPECT_EQ(d.store()->snapshot_id(), snapshot->snapshot_id());
  EXPECT_EQ(moved.store(), snapshot);
  EXPECT_EQ(copy.column(0).data(), d.column(0).data());
}

TEST(Dataset, WithSchemaSharesColumnsUnderEqualCardinalities) {
  Schema s = SmallSchema();
  Dataset d = FromRows(s, {{0, 1, 0}, {1, 2, 3}});
  Schema flat = FlattenTaxonomies(s);
  Dataset rebound = d.WithSchema(flat);
  EXPECT_TRUE(rebound.schema().attr(2).taxonomy.IsFlat());
  for (int c = 0; c < d.num_attrs(); ++c) {
    EXPECT_EQ(rebound.column(c).data(), d.column(c).data());
  }
  // Its own snapshot: the packed levels follow the schema's taxonomies.
  EXPECT_NE(rebound.store()->snapshot_id(), d.store()->snapshot_id());
  Schema wider({Attribute::Binary("a"), Attribute::Categorical("b", 4),
                Attribute::Continuous("c", 0, 16, 4)});
  EXPECT_THROW(d.WithSchema(wider), std::invalid_argument);
  Schema narrow({Attribute::Binary("a"), Attribute::Categorical("b", 3)});
  EXPECT_THROW(d.WithSchema(narrow), std::invalid_argument);
}

TEST(Dataset, JointCountsMatchManualCount) {
  Dataset d = FromRows(SmallSchema(), {{0, 1, 0}, {0, 1, 0}, {1, 2, 3},
                                       {1, 1, 0}, {0, 0, 2}});
  std::vector<int> attrs = {0, 1};
  ProbTable counts = d.JointCounts(attrs);
  EXPECT_DOUBLE_EQ(counts.Sum(), 5.0);
  std::vector<Value> a01 = {0, 1};
  EXPECT_DOUBLE_EQ(counts.At(a01), 2.0);
  std::vector<Value> a12 = {1, 2};
  EXPECT_DOUBLE_EQ(counts.At(a12), 1.0);
  std::vector<Value> a02 = {0, 2};
  EXPECT_DOUBLE_EQ(counts.At(a02), 0.0);
}

TEST(Dataset, JointCountsGeneralized) {
  // Attribute c has a binary-tree taxonomy over 4 bins: level 1 groups
  // {0,1} and {2,3}.
  Dataset d = FromRows(SmallSchema(), {{0, 0, 0}, {0, 0, 1}, {0, 0, 2},
                                       {0, 0, 3}, {1, 0, 3}});
  std::vector<GenAttr> gattrs = {{2, 1}, {0, 0}};
  ProbTable counts = d.JointCountsGeneralized(gattrs);
  EXPECT_EQ(counts.cards(), (std::vector<int>{2, 2}));
  std::vector<Value> g00 = {0, 0};  // c in {0,1}, a=0
  EXPECT_DOUBLE_EQ(counts.At(g00), 2.0);
  std::vector<Value> g10 = {1, 0};  // c in {2,3}, a=0
  EXPECT_DOUBLE_EQ(counts.At(g10), 2.0);
  std::vector<Value> g11 = {1, 1};
  EXPECT_DOUBLE_EQ(counts.At(g11), 1.0);
}

TEST(Dataset, JointCountsEmptyAttrSetIsScalarN) {
  Dataset d = FromRows(SmallSchema(), {{0, 0, 0}, {0, 0, 0}});
  ProbTable counts = d.JointCounts({});
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
}

TEST(Dataset, SplitPartitionsRows) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({static_cast<Value>(i % 2), static_cast<Value>(i % 3),
                    static_cast<Value>(i % 4)});
  }
  Dataset d = FromRows(SmallSchema(), rows);
  Rng rng(3);
  auto [train, test] = d.Split(0.8, rng);
  EXPECT_EQ(train.num_rows(), 80);
  EXPECT_EQ(test.num_rows(), 20);
  EXPECT_THROW(d.Split(0.0, rng), std::invalid_argument);
  EXPECT_THROW(d.Split(1.0, rng), std::invalid_argument);
}

TEST(Dataset, SplitNeedsTwoRows) {
  Rng rng(4);
  for (int n : {0, 1}) {
    Dataset d = FromRows(SmallSchema(),
                         std::vector<std::vector<Value>>(n, {0, 0, 0}));
    EXPECT_THROW(d.Split(0.5, rng), std::invalid_argument) << n << " rows";
  }
  auto [train, test] = FromRows(SmallSchema(), {{0, 0, 0}, {1, 1, 1}})
                           .Split(0.5, rng);
  EXPECT_EQ(train.num_rows(), 1);
  EXPECT_EQ(test.num_rows(), 1);
}

TEST(Dataset, SelectRows) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({static_cast<Value>(i % 2), 0, static_cast<Value>(i % 4)});
  }
  Dataset d = FromRows(SmallSchema(), rows);
  std::vector<int> pick = {9, 0, 3};
  Dataset s = d.SelectRows(pick);
  EXPECT_EQ(s.num_rows(), 3);
  EXPECT_EQ(s.at(0, 2), d.at(9, 2));
  EXPECT_EQ(s.at(1, 2), d.at(0, 2));
  EXPECT_EQ(s.at(2, 2), d.at(3, 2));
}

TEST(Dataset, SelectRowsRejectsOutOfRangeIndices) {
  Dataset d = FromRows(SmallSchema(), {{0, 0, 0}, {0, 0, 0}});
  std::vector<int> negative = {0, -1};
  EXPECT_THROW(d.SelectRows(negative), std::invalid_argument);
  std::vector<int> too_big = {0, 2};
  EXPECT_THROW(d.SelectRows(too_big), std::invalid_argument);
}

TEST(Dataset, FromColumnsAdoptsWithoutCopy) {
  std::vector<std::vector<Value>> cols = {{1, 0, 1}, {2, 0, 1}, {3, 0, 2}};
  const Value* col0 = cols[0].data();
  Dataset d = Dataset::FromColumns(SmallSchema(), std::move(cols));
  EXPECT_EQ(d.num_rows(), 3);
  EXPECT_EQ(d.at(0, 2), 3);
  EXPECT_EQ(d.at(2, 1), 1);
  // Move-aware: the column buffer was adopted, not copied.
  EXPECT_EQ(d.column(0).data(), col0);
}

TEST(Dataset, FromColumnsValidatesShapeAndDomain) {
  {
    std::vector<std::vector<Value>> wrong_count = {{0}, {0}};
    EXPECT_THROW(Dataset::FromColumns(SmallSchema(), std::move(wrong_count)),
                 std::invalid_argument);
  }
  {
    std::vector<std::vector<Value>> ragged = {{0, 0}, {0}, {0, 0}};
    EXPECT_THROW(Dataset::FromColumns(SmallSchema(), std::move(ragged)),
                 std::invalid_argument);
  }
  {
    std::vector<std::vector<Value>> out_of_domain = {{0}, {9}, {0}};
    EXPECT_THROW(Dataset::FromColumns(SmallSchema(), std::move(out_of_domain)),
                 std::invalid_argument);
  }
  {
    std::vector<std::vector<Value>> empty = {{}, {}, {}};
    Dataset d = Dataset::FromColumns(SmallSchema(), std::move(empty));
    EXPECT_EQ(d.num_rows(), 0);
  }
}

TEST(Csv, RoundTrip) {
  std::vector<std::vector<Value>> rows;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    rows.push_back({static_cast<Value>(rng.UniformInt(2)),
                    static_cast<Value>(rng.UniformInt(3)),
                    static_cast<Value>(rng.UniformInt(4))});
  }
  Dataset d = FromRows(SmallSchema(), rows);
  std::ostringstream out;
  WriteCsv(d, out);
  std::istringstream in(out.str());
  Dataset back = ReadCsv(d.schema(), in);
  ASSERT_EQ(back.num_rows(), d.num_rows());
  for (int r = 0; r < d.num_rows(); ++r) {
    for (int c = 0; c < d.num_attrs(); ++c) {
      EXPECT_EQ(back.at(r, c), d.at(r, c));
    }
  }
}

TEST(Csv, RejectsBadInput) {
  Schema s = SmallSchema();
  {
    std::istringstream in("x,y,z\n0,0,0\n");
    EXPECT_THROW(ReadCsv(s, in), std::runtime_error);  // wrong header
  }
  {
    std::istringstream in("a,b,c\n0,0\n");
    EXPECT_THROW(ReadCsv(s, in), std::runtime_error);  // row width
  }
  {
    std::istringstream in("a,b,c\n0,9,0\n");
    EXPECT_THROW(ReadCsv(s, in), std::runtime_error);  // out of domain
  }
  {
    std::istringstream in("a,b,c\n0,x,0\n");
    EXPECT_THROW(ReadCsv(s, in), std::runtime_error);  // non-integer
  }
  {
    std::istringstream in("");
    EXPECT_THROW(ReadCsv(s, in), std::runtime_error);  // empty
  }
}

}  // namespace
}  // namespace privbayes
