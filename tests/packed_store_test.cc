// Source-equivalence tests for the packed storage layer: a ColumnStore over
// an mmap of a packed file must be BIT-IDENTICAL to the heap store packed
// from the same rows — for counting (every kernel dispatch level), for
// decoding every slice through the codec, for sampling, for the
// log-likelihood pass, and for a whole fit. Plus the
// error paths a versioned on-disk format owes its users: bad magic, newer
// version, truncated header, truncated payload, out-of-domain payload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/numa.h"
#include "common/random.h"
#include "core/privbayes.h"
#include "data/column_backend.h"
#include "data/column_store.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/packed_codec.h"
#include "data/packed_file.h"

namespace privbayes {
namespace {

// A temp packed file deleted on scope exit.
class TempPacked {
 public:
  explicit TempPacked(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempPacked() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Streams every row of `d` through the packed writer.
void WritePacked(const Dataset& d, const std::string& path,
                 uint64_t generation = 7) {
  PackedFileWriter writer(path, d.schema(), d.num_rows(), generation);
  std::vector<Value> row(static_cast<size_t>(d.num_attrs()));
  for (int64_t r = 0; r < d.num_rows(); ++r) {
    for (int c = 0; c < d.num_attrs(); ++c) {
      row[static_cast<size_t>(c)] = d.at(r, c);
    }
    writer.AppendRow(row);
  }
  writer.Finish();
}

// Decodes the whole (attr, level) slice of `store` through the codec.
std::vector<Value> DecodeColumn(const ColumnStore& store, int attr,
                                int level) {
  const PackedSlice s = store.backend().Packed(attr, level);
  std::vector<Value> out(static_cast<size_t>(store.num_rows()));
  UnpackValues(s.bytes(), out.size(), s.log2_bits, out.data());
  return out;
}

void ExpectIdenticalCounts(const Dataset& heap, const Dataset& mapped,
                           std::span<const GenAttr> gattrs) {
  ProbTable a = heap.JointCountsGeneralized(gattrs);
  ProbTable b = mapped.JointCountsGeneralized(gattrs);
  ASSERT_EQ(a.vars(), b.vars());
  ASSERT_EQ(a.cards(), b.cards());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "cell " << i;
  }
}

// Counting equivalence at the scalar and the detected dispatch level.
void ExpectEquivalentAcrossModes(const Dataset& heap, const Dataset& mapped,
                                 std::span<const GenAttr> gattrs) {
  SetSimdForTesting(SimdLevel::kScalar);
  ExpectIdenticalCounts(heap, mapped, gattrs);
  SetSimdForTesting(DetectedSimdLevel());
  ExpectIdenticalCounts(heap, mapped, gattrs);
  ResetSimdForTesting();
}

TEST(PackedStore, RoundTripPreservesEveryColumnAndLevel) {
  Dataset d = MakeAdult(11, 997);  // odd row count: exercises tail padding
  TempPacked file("roundtrip.pbp");
  WritePacked(d, file.path());

  Dataset mapped = Dataset::FromPackedFile(file.path());
  EXPECT_TRUE(mapped.out_of_core());
  ASSERT_EQ(mapped.num_rows(), d.num_rows());
  ASSERT_EQ(mapped.num_attrs(), d.num_attrs());

  std::shared_ptr<const ColumnStore> store = mapped.store();
  for (int a = 0; a < d.num_attrs(); ++a) {
    const TaxonomyTree& tax = d.schema().attr(a).taxonomy;
    ASSERT_EQ(mapped.schema().attr(a).name, d.schema().attr(a).name);
    for (int l = 0; l < tax.num_levels(); ++l) {
      const std::vector<Value> column = DecodeColumn(*store, a, l);
      for (int64_t r = 0; r < d.num_rows(); ++r) {
        const Value expect =
            l == 0 ? d.at(r, a) : tax.Generalize(d.at(r, a), l);
        ASSERT_EQ(column[static_cast<size_t>(r)], expect)
            << "attr " << a << " level " << l << " row " << r;
      }
    }
  }
}

TEST(PackedStore, CountingBitIdenticalToHeapAcrossKernelModes) {
  // Adult mixes binary, 4-bit, 8-bit and taxonomy columns; row count
  // straddles word boundaries.
  Dataset d = MakeAdult(23, 4097);
  TempPacked file("counting.pbp");
  WritePacked(d, file.path());
  Dataset mapped = Dataset::FromPackedFile(file.path());

  // All-binary level-0 set: the packed popcount kernels.
  std::vector<GenAttr> binary = {{0, 0}, {1, 0}};
  ExpectEquivalentAcrossModes(d, mapped, binary);
  // Mixed set: the radix kernel.
  std::vector<GenAttr> mixed = {{0, 0}, {2, 0}, {14, 0}};
  ExpectEquivalentAcrossModes(d, mapped, mixed);
  // Generalized levels, including a deep taxonomy.
  std::vector<GenAttr> generalized = {{4, 2}, {14, 1}, {2, 1}};
  ExpectEquivalentAcrossModes(d, mapped, generalized);
}

TEST(PackedStore, CountingBitIdenticalOnAllBinaryData) {
  Dataset d = MakeNltcs(5, 2000);
  TempPacked file("nltcs.pbp");
  WritePacked(d, file.path());
  Dataset mapped = Dataset::FromPackedFile(file.path());
  std::vector<GenAttr> gattrs;
  for (int a = 0; a < 6; ++a) gattrs.push_back(GenAttr{a, 0});
  ExpectEquivalentAcrossModes(d, mapped, gattrs);
}

TEST(PackedStore, FitAndSampleBitIdenticalToHeap) {
  Dataset d = MakeAdult(31, 2000);
  TempPacked file("fit.pbp");
  WritePacked(d, file.path());
  Dataset mapped = Dataset::FromPackedFile(file.path());

  PrivBayesOptions options;
  options.epsilon = 0.8;
  options.candidate_cap = 50;
  options.first_attr = 0;
  PrivBayes mechanism(options);

  Rng rng_heap(42), rng_mapped(42);
  PrivBayesModel heap_model = mechanism.Fit(d, rng_heap);
  PrivBayesModel mapped_model = mechanism.Fit(mapped, rng_mapped);

  // Same counts + same noise stream => identical structure and identical
  // synthetic rows.
  Dataset heap_rows = SampleSyntheticData(heap_model, 500, rng_heap);
  Dataset mapped_rows = SampleSyntheticData(mapped_model, 500, rng_mapped);
  ASSERT_EQ(heap_rows.num_rows(), mapped_rows.num_rows());
  for (int64_t r = 0; r < heap_rows.num_rows(); ++r) {
    for (int c = 0; c < heap_rows.num_attrs(); ++c) {
      ASSERT_EQ(heap_rows.at(r, c), mapped_rows.at(r, c))
          << "row " << r << " col " << c;
    }
  }
  // LogLikelihood decodes Value columns through the codec on both sources.
  const double ll_heap = LogLikelihood(d, heap_model.network,
                                       heap_model.conditionals);
  const double ll_mapped = LogLikelihood(mapped, mapped_model.network,
                                         mapped_model.conditionals);
  EXPECT_DOUBLE_EQ(ll_heap, ll_mapped);
}

// LogLikelihood walks 8192-row shards. Three full shards and a 37-row tail
// must sum to the same bits from the heap and the mapped store, and to the
// golden. Empirical conditionals (best_marginal) keep Laplace noise out of
// the golden.
TEST(PackedStore, MultiShardLogLikelihoodMatchesGolden) {
  constexpr int64_t kRows = 3 * NetworkSampler::kShardRows + 37;
  Dataset d = MakeAdult(17, kRows);
  TempPacked file("loglik.pbp");
  WritePacked(d, file.path());
  Dataset mapped = Dataset::FromPackedFile(file.path());

  PrivBayesOptions options;
  options.epsilon = 0.8;
  options.candidate_cap = 50;
  options.first_attr = 0;
  options.best_marginal = true;
  Rng rng(5);
  const PrivBayesModel model = PrivBayes(options).Fit(d, rng);
  const double ll_heap =
      LogLikelihood(d, model.network, model.conditionals);
  const double ll_mapped =
      LogLikelihood(mapped, model.network, model.conditionals);
  EXPECT_EQ(ll_heap, ll_mapped);
  EXPECT_EQ(ll_heap, -0x1.10f47492b33e7p+20) << std::hexfloat << ll_heap;
}

TEST(PackedStore, SnapshotIdIsFileGenerationAndStableAcrossOpens) {
  Dataset d = MakeNltcs(7, 500);
  TempPacked file("gen.pbp");
  WritePacked(d, file.path(), /*generation=*/0x1234);

  Dataset a = Dataset::FromPackedFile(file.path());
  Dataset b = Dataset::FromPackedFile(file.path());
  EXPECT_EQ(a.store()->snapshot_id(), b.store()->snapshot_id());
  EXPECT_EQ(a.store()->snapshot_id(), (uint64_t{1} << 63) | 0x1234u);
  // Heap snapshots live in the counter namespace, never colliding.
  EXPECT_NE(d.store()->snapshot_id(), a.store()->snapshot_id());
  EXPECT_EQ(d.store()->snapshot_id() >> 63, 0u);
}

TEST(PackedStore, HeapAndMappedPinsDecodeIdenticalColumns) {
  Dataset d = MakeAdult(9, 997);
  TempPacked file("pins.pbp");
  WritePacked(d, file.path());
  Dataset mapped = Dataset::FromPackedFile(file.path());
  std::shared_ptr<const ColumnStore> heap_store = d.store();
  std::shared_ptr<const ColumnStore> mapped_store = mapped.store();
  for (int a = 0; a < d.num_attrs(); ++a) {
    const TaxonomyTree& tax = d.schema().attr(a).taxonomy;
    for (int l = 0; l < tax.num_levels(); ++l) {
      const std::vector<Value> heap_col = DecodeColumn(*heap_store, a, l);
      const std::vector<Value> mapped_col =
          DecodeColumn(*mapped_store, a, l);
      for (int64_t r = 0; r < d.num_rows(); ++r) {
        const size_t i = static_cast<size_t>(r);
        ASSERT_EQ(heap_col[i], mapped_col[i])
            << "attr " << a << " level " << l << " row " << r;
        ASSERT_EQ(heap_col[i], tax.Generalize(d.at(r, a), l));
      }
    }
  }
}

TEST(PackedStore, OutOfCoreGuardsThrowOnResidentOnlyOperations) {
  Dataset d = MakeNltcs(13, 200);
  TempPacked file("guards.pbp");
  WritePacked(d, file.path());
  Dataset mapped = Dataset::FromPackedFile(file.path());
  EXPECT_THROW(mapped.column(0), std::exception);
  EXPECT_THROW(mapped.WithSchema(mapped.schema()), std::exception);
  std::vector<int> rows = {0, 1};
  EXPECT_THROW(mapped.SelectRows(rows), std::exception);
  EXPECT_THROW(mapped.JointCountsGeneralizedNaive(
                   std::vector<GenAttr>{{0, 0}}),
               std::exception);
}

// ---------------------------------------------------------------- errors

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(PackedStore, RejectsBadMagic) {
  TempPacked file("badmagic.pbp");
  WriteBytes(file.path(),
             std::vector<uint8_t>{'N', 'O', 'T', 'P', 'A', 'C', 'K', 'D',
                                  0, 0, 0, 0, 0, 0, 0, 0});
  try {
    Dataset::FromPackedFile(file.path());
    FAIL() << "expected throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(PackedStore, RejectsNewerVersionWithUpgradeMessage) {
  Dataset d = MakeNltcs(3, 100);
  TempPacked file("newver.pbp");
  WritePacked(d, file.path());
  std::vector<uint8_t> bytes = ReadBytes(file.path());
  bytes[8] = static_cast<uint8_t>(kPackedFormatVersion + 1);  // version u32 LE
  WriteBytes(file.path(), bytes);
  try {
    Dataset::FromPackedFile(file.path());
    FAIL() << "expected throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("upgrade"), std::string::npos)
        << e.what();
  }
}

TEST(PackedStore, RejectsTruncatedHeader) {
  Dataset d = MakeNltcs(3, 100);
  TempPacked file("trunchdr.pbp");
  WritePacked(d, file.path());
  std::vector<uint8_t> bytes = ReadBytes(file.path());
  bytes.resize(30);  // mid fixed header
  WriteBytes(file.path(), bytes);
  EXPECT_THROW(Dataset::FromPackedFile(file.path()), std::exception);
}

TEST(PackedStore, RejectsTruncatedPayload) {
  Dataset d = MakeNltcs(3, 1000);
  TempPacked file("truncpay.pbp");
  WritePacked(d, file.path());
  std::vector<uint8_t> bytes = ReadBytes(file.path());
  bytes.resize(bytes.size() - 128);  // lop off part of the last slice
  WriteBytes(file.path(), bytes);
  try {
    Dataset::FromPackedFile(file.path());
    FAIL() << "expected throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(PackedStore, RejectsOutOfDomainPayload) {
  // Cardinality 3 packs at 2 bits, so a payload of all-ones bytes decodes to
  // value 3: outside the domain every kernel indexes histograms by.
  Schema schema({Attribute::Categorical("a", 3),
                 Attribute::Categorical("b", 3)});
  Dataset d = Dataset::FromColumns(
      schema, std::vector<std::vector<Value>>(2, std::vector<Value>(100)));
  TempPacked file("domain.pbp");
  WritePacked(d, file.path());
  std::vector<uint8_t> bytes = ReadBytes(file.path());
  const PackedFileHeader header =
      ParsePackedHeader(bytes.data(), bytes.size());
  for (const std::vector<PackedSliceInfo>& levels : header.slices) {
    for (const PackedSliceInfo& s : levels) {
      std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(s.byte_offset),
                  s.word_count * 8, uint8_t{0xFF});
    }
  }
  WriteBytes(file.path(), bytes);
  try {
    Dataset mapped = Dataset::FromPackedFile(file.path());
    mapped.JointCountsGeneralized(std::vector<GenAttr>{{0, 0}, {1, 0}});
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("out of domain"), std::string::npos) << what;
    EXPECT_NE(what.find("'a' level 0"), std::string::npos) << what;
  }
}

TEST(PackedStore, RejectsMissingAndIrregularFiles) {
  EXPECT_THROW(Dataset::FromPackedFile("/nonexistent/nope.pbp"),
               std::exception);
  EXPECT_THROW(Dataset::FromPackedFile("/"), std::exception);
}

TEST(PackedStore, WriterRejectsRowCountMismatch) {
  Dataset d = MakeNltcs(3, 10);
  TempPacked file("short.pbp");
  PackedFileWriter writer(file.path(), d.schema(), 10, 1);
  std::vector<Value> row(static_cast<size_t>(d.num_attrs()), 0);
  for (int r = 0; r < 5; ++r) writer.AppendRow(row);
  EXPECT_THROW(writer.Finish(), std::exception);
}

// ------------------------------------------------------------------ numa

TEST(Numa, ParseCpuListHandlesRangesAndSingles) {
  EXPECT_EQ(ParseCpuList("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(ParseCpuList("0"), (std::vector<int>{0}));
  EXPECT_TRUE(ParseCpuList("").empty());
}

TEST(Numa, TopologyHasAtLeastOneNodeWithCpus) {
  const NumaTopology& topo = NumaTopo();
  ASSERT_GE(topo.num_nodes(), 1);
  EXPECT_FALSE(topo.node_cpus[0].empty());
}

}  // namespace
}  // namespace privbayes
