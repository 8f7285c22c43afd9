// Tests for data/encoding: binary/Gray round trips, clamping of
// out-of-domain codes, vanilla flattening.

#include <gtest/gtest.h>

#include "bn/sampling.h"
#include "common/random.h"
#include "core/privbayes.h"
#include "data/encoding.h"

namespace privbayes {
namespace {

Schema MixedSchema() {
  return Schema({Attribute::Binary("flag"), Attribute::Categorical("cat", 5),
                 Attribute::Continuous("num", 0, 16, 16)});
}

Dataset RandomData(const Schema& s, int rows, uint64_t seed) {
  std::vector<std::vector<Value>> cols(s.num_attrs(),
                                       std::vector<Value>(rows));
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < s.num_attrs(); ++c) {
      cols[c][r] = static_cast<Value>(rng.UniformInt(s.Cardinality(c)));
    }
  }
  return Dataset::FromColumns(s, std::move(cols));
}

TEST(BinaryEncoder, SchemaShape) {
  BinaryEncoder enc(MixedSchema(), /*gray=*/false);
  // flag: 1 bit; cat(5): 3 bits; num(16): 4 bits.
  EXPECT_EQ(enc.BitsOf(0), 1);
  EXPECT_EQ(enc.BitsOf(1), 3);
  EXPECT_EQ(enc.BitsOf(2), 4);
  EXPECT_EQ(enc.binary_schema().num_attrs(), 8);
  EXPECT_TRUE(enc.binary_schema().AllBinary());
  EXPECT_EQ(enc.binary_schema().attr(1).name, "cat.b0");
  EXPECT_EQ(enc.BitColumn(2, 0), 4);
}

TEST(BinaryEncoder, NaturalCodeRoundTrip) {
  Schema s = MixedSchema();
  BinaryEncoder enc(s, false);
  Dataset d = RandomData(s, 200, 1);
  Dataset bin = enc.Encode(d);
  Dataset back = enc.Decode(bin);
  for (int r = 0; r < d.num_rows(); ++r) {
    for (int c = 0; c < d.num_attrs(); ++c) {
      EXPECT_EQ(back.at(r, c), d.at(r, c));
    }
  }
}

TEST(BinaryEncoder, GrayCodeRoundTrip) {
  Schema s = MixedSchema();
  BinaryEncoder enc(s, true);
  Dataset d = RandomData(s, 200, 2);
  Dataset back = enc.Decode(enc.Encode(d));
  for (int r = 0; r < d.num_rows(); ++r) {
    for (int c = 0; c < d.num_attrs(); ++c) {
      EXPECT_EQ(back.at(r, c), d.at(r, c));
    }
  }
}

TEST(BinaryEncoder, GrayAdjacentValuesDifferInOneBit) {
  Schema s({Attribute::Continuous("age", 0, 80, 8)});
  BinaryEncoder enc(s, true);
  for (Value v = 0; v + 1 < 8; ++v) {
    int a = enc.EncodeValue(0, v);
    int b = enc.EncodeValue(0, v + 1);
    EXPECT_EQ(__builtin_popcount(a ^ b), 1) << "values " << v;
  }
}

TEST(BinaryEncoder, NaturalCodeIsIdentityBits) {
  Schema s({Attribute::Categorical("c", 8)});
  BinaryEncoder enc(s, false);
  for (Value v = 0; v < 8; ++v) EXPECT_EQ(enc.EncodeValue(0, v), v);
}

TEST(BinaryEncoder, OutOfDomainCodesClamp) {
  // cat has 5 values in 3 bits: codes 5..7 are invalid and clamp to 4.
  Schema s({Attribute::Categorical("cat", 5)});
  BinaryEncoder enc(s, false);
  EXPECT_EQ(enc.DecodeValue(0, 5), 4);
  EXPECT_EQ(enc.DecodeValue(0, 7), 4);
  EXPECT_EQ(enc.DecodeValue(0, 3), 3);
  // Gray: decode first, then clamp.
  BinaryEncoder gray(s, true);
  for (int code = 0; code < 8; ++code) {
    EXPECT_LT(gray.DecodeValue(0, code), 5);
  }
}

TEST(BinaryEncoder, MsbFirstLayout) {
  // Value 4 of an 8-value domain is 100₂: bit column 0 (MSB) holds 1.
  Schema s({Attribute::Categorical("c", 8)});
  BinaryEncoder enc(s, false);
  Dataset d = Dataset::FromColumns(s, {{4}});
  Dataset bin = enc.Encode(d);
  EXPECT_EQ(bin.at(0, 0), 1);
  EXPECT_EQ(bin.at(0, 1), 0);
  EXPECT_EQ(bin.at(0, 2), 0);
}

TEST(Encoding, VanillaFlattensTaxonomies) {
  Schema s = MixedSchema();
  EXPECT_EQ(s.attr(2).taxonomy.num_levels(), 4);
  Schema flat = FlattenTaxonomies(s);
  EXPECT_EQ(flat.attr(2).taxonomy.num_levels(), 1);
  EXPECT_EQ(flat.Cardinality(2), s.Cardinality(2));
}

TEST(Encoding, ApplyEncodingShapes) {
  Schema s = MixedSchema();
  Dataset d = RandomData(s, 50, 3);
  EncodedDataset bin = ApplyEncoding(d, EncodingKind::kBinary);
  EXPECT_TRUE(bin.data.schema().AllBinary());
  EXPECT_NE(bin.encoder, nullptr);
  EncodedDataset van = ApplyEncoding(d, EncodingKind::kVanilla);
  EXPECT_EQ(van.data.num_attrs(), d.num_attrs());
  EXPECT_EQ(van.encoder, nullptr);
  EXPECT_TRUE(van.data.schema().attr(2).taxonomy.IsFlat());
  EncodedDataset hier = ApplyEncoding(d, EncodingKind::kHierarchical);
  EXPECT_EQ(hier.data.schema().attr(2).taxonomy.num_levels(), 4);
}

TEST(Encoding, DecodeToOriginalRestoresSchema) {
  Schema s = MixedSchema();
  Dataset d = RandomData(s, 30, 4);
  for (EncodingKind kind :
       {EncodingKind::kBinary, EncodingKind::kGray, EncodingKind::kVanilla,
        EncodingKind::kHierarchical}) {
    EncodedDataset enc = ApplyEncoding(d, kind);
    Dataset back =
        DecodeToOriginal(enc.data, s, kind, enc.encoder.get());
    ASSERT_EQ(back.num_attrs(), d.num_attrs());
    ASSERT_EQ(back.num_rows(), d.num_rows());
    for (int r = 0; r < d.num_rows(); ++r) {
      for (int c = 0; c < d.num_attrs(); ++c) {
        EXPECT_EQ(back.at(r, c), d.at(r, c)) << EncodingName(kind);
      }
    }
    // Taxonomies restored on the decoded schema.
    EXPECT_EQ(back.schema().attr(2).taxonomy.num_levels(), 4);
  }
}

// Vanilla and hierarchical decoding only restore the taxonomies: the decoded
// chunk must share the sampled chunk's columns, not copy them.
TEST(Encoding, DecodeToOriginalSharesColumns) {
  Schema s = MixedSchema();
  Dataset d = RandomData(s, 400, 5);
  for (EncodingKind kind :
       {EncodingKind::kVanilla, EncodingKind::kHierarchical}) {
    PrivBayesOptions options;
    options.epsilon = 1.0;
    options.encoding = kind;
    Rng rng(6);
    PrivBayesModel model = PrivBayes(options).Fit(d, rng);
    NetworkSampler sampler(model.encoded_schema, model.network,
                           model.conditionals);
    Dataset chunk = sampler.SampleChunk(7, 0, 300);
    Dataset decoded = DecodeToOriginal(chunk, s, kind, nullptr);
    ASSERT_EQ(decoded.num_rows(), chunk.num_rows());
    EXPECT_EQ(decoded.schema().attr(2).taxonomy.num_levels(), 4);
    for (int c = 0; c < s.num_attrs(); ++c) {
      EXPECT_EQ(decoded.column(c).data(), chunk.column(c).data())
          << EncodingName(kind) << " column " << c;
    }
  }
  // A schema whose cardinalities differ cannot take the columns over.
  Schema narrower({Attribute::Binary("flag"), Attribute::Categorical("cat", 4),
                   Attribute::Continuous("num", 0, 16, 16)});
  EXPECT_THROW(DecodeToOriginal(d, narrower, EncodingKind::kVanilla, nullptr),
               std::invalid_argument);
}

TEST(Encoding, Names) {
  EXPECT_STREQ(EncodingName(EncodingKind::kBinary), "Binary");
  EXPECT_STREQ(EncodingName(EncodingKind::kGray), "Gray");
  EXPECT_STREQ(EncodingName(EncodingKind::kVanilla), "Vanilla");
  EXPECT_STREQ(EncodingName(EncodingKind::kHierarchical), "Hierarchical");
}

// Repeated encodes of the same source must hand back Datasets
// sharing one ColumnStore snapshot id — the key the cross-run MarginalStore
// caches joints under, so encoding sweeps reuse counted joints like
// hierarchical (which returns the input itself) already does.
TEST(Encoding, RepeatedEncodesShareOneSnapshot) {
  Schema s = MixedSchema();
  Dataset d = RandomData(s, 64, 9);
  for (EncodingKind kind :
       {EncodingKind::kBinary, EncodingKind::kGray, EncodingKind::kVanilla}) {
    EncodedDataset first = ApplyEncoding(d, kind);
    EncodedDataset second = ApplyEncoding(d, kind);
    EXPECT_EQ(first.data.store()->snapshot_id(),
              second.data.store()->snapshot_id())
        << EncodingName(kind);
    for (int c = 0; c < first.data.num_attrs(); ++c) {
      EXPECT_EQ(first.data.column(c), second.data.column(c));
    }
  }
  // The two binarizations must not be confused with each other.
  EXPECT_NE(ApplyEncoding(d, EncodingKind::kBinary).data.store()->snapshot_id(),
            ApplyEncoding(d, EncodingKind::kGray).data.store()->snapshot_id());
}

TEST(Encoding, DifferentSourceGetsAFreshEncode) {
  Schema s = MixedSchema();
  Dataset d = RandomData(s, 64, 10);
  EncodedDataset before = ApplyEncoding(d, EncodingKind::kBinary);
  uint64_t before_id = before.data.store()->snapshot_id();

  // The same rows with one cell flipped are a different source: a fresh
  // encode (fresh id) reflecting its cells, never the cached bits of `d`.
  std::vector<std::vector<Value>> cols;
  for (int c = 0; c < d.num_attrs(); ++c) cols.push_back(d.column(c));
  cols[0][0] = static_cast<Value>(1 - cols[0][0]);
  Dataset other = Dataset::FromColumns(s, std::move(cols));
  EncodedDataset after = ApplyEncoding(other, EncodingKind::kBinary);
  EXPECT_NE(after.data.store()->snapshot_id(), before_id);
  EXPECT_NE(after.data.at(0, 0), before.data.at(0, 0));

  // The original source is still served its own cached encode.
  EncodedDataset again = ApplyEncoding(d, EncodingKind::kBinary);
  EXPECT_EQ(again.data.store()->snapshot_id(), before_id);
  EXPECT_EQ(again.data.at(0, 0), before.data.at(0, 0));
}

}  // namespace
}  // namespace privbayes
