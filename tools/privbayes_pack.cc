// privbayes_pack: converter/generator for packed dataset files.
//
// A packed file (data/packed_file.h) is the ColumnStore's bit-packed layout
// on disk; mapping one serves counting and sampling without ever
// materializing rows, which is how fits scale past RAM. This tool produces
// and inspects them:
//
//   privbayes_pack --dataset Adult --out adult.pbp
//       pack a built-in synthetic evaluation dataset at its paper size
//
//   privbayes_pack --dataset Adult --rows 100000000 --out adult100m.pbp
//       stream a scaled-up variant: rows are drawn with replacement from
//       the base dataset (bootstrap resampling preserves every marginal in
//       expectation), written straight through the streaming packer —
//       memory stays O(base dataset), never O(rows)
//
//   privbayes_pack --csv data.csv --schema-from Adult --out data.pbp
//       convert a CSV (header + taxonomy-leaf codes, the WriteCsv format)
//       under a built-in dataset's schema; two streaming passes (count,
//       then pack), no full-table materialization
//
//   privbayes_pack --info data.pbp
//       print the header: rows, attributes, slices, bytes, generation

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/flags.h"
#include "common/random.h"
#include "data/column_backend.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/packed_file.h"

namespace pb = privbayes;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dataset NAME [--rows N] [--seed S] --out FILE\n"
               "       %s --csv FILE --schema-from NAME --out FILE\n"
               "       %s --info FILE\n",
               argv0, argv0, argv0);
  std::exit(2);
}

// Content identity for the MarginalStore's cross-process cache: any change
// to source, row count or seed must change it. FNV-1a over the parameters.
uint64_t ContentGeneration(const std::string& tag, int64_t rows,
                           uint64_t seed) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  mix(static_cast<uint64_t>(rows));
  mix(seed);
  return h == 0 ? 1 : h;
}

int PackDataset(const std::string& name, int64_t rows, uint64_t seed,
                const std::string& out) {
  const pb::Dataset base = pb::MakeDatasetByName(name, seed);
  if (rows <= 0) rows = base.num_rows();
  const int d = base.num_attrs();
  std::vector<const pb::Value*> cols(d);
  for (int c = 0; c < d; ++c) cols[c] = base.column(c).data();

  pb::PackedFileWriter writer(out, base.schema(), rows,
                              ContentGeneration("dataset:" + name, rows, seed));
  std::vector<pb::Value> row(static_cast<size_t>(d));
  const int64_t base_rows = base.num_rows();
  pb::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int64_t r = 0; r < rows; ++r) {
    // First pass through the base verbatim, bootstrap resample beyond it:
    // --rows N <= base is a prefix, the paper size is exactly the base.
    const int64_t src =
        r < base_rows
            ? r
            : static_cast<int64_t>(rng.UniformInt(
                  static_cast<uint64_t>(base_rows)));
    for (int c = 0; c < d; ++c) row[static_cast<size_t>(c)] = cols[c][src];
    writer.AppendRow(row);
    if ((r + 1) % (int64_t{16} << 20) == 0) {
      std::fprintf(stderr, "  packed %" PRId64 "M / %" PRId64 "M rows\n",
                   (r + 1) >> 20, rows >> 20);
    }
  }
  writer.Finish();
  std::printf("packed %s: %" PRId64 " rows x %d attrs -> %s\n", name.c_str(),
              rows, d, out.c_str());
  return 0;
}

int PackCsv(const std::string& csv_path, const std::string& schema_name,
            const std::string& out) {
  const pb::Schema schema =
      pb::MakeDatasetByName(schema_name, /*seed=*/1, /*num_rows=*/0).schema();

  // Pass 1: count data rows (the writer needs the final count up front).
  int64_t rows = 0;
  {
    std::ifstream in(csv_path);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", csv_path.c_str());
      return 1;
    }
    std::string line;
    if (!std::getline(in, line)) {
      std::fprintf(stderr, "'%s' is empty\n", csv_path.c_str());
      return 1;
    }
    while (std::getline(in, line)) {
      if (!line.empty()) ++rows;
    }
  }

  // Pass 2: validate the header, stream rows through the packer.
  std::ifstream in(csv_path);
  std::string line;
  std::getline(in, line);
  const std::vector<std::string> names = pb::SplitCsvLine(line);
  if (static_cast<int>(names.size()) != schema.num_attrs()) {
    std::fprintf(stderr, "CSV has %zu columns, schema '%s' has %d\n",
                 names.size(), schema_name.c_str(), schema.num_attrs());
    return 1;
  }
  for (int c = 0; c < schema.num_attrs(); ++c) {
    if (names[static_cast<size_t>(c)] != schema.attr(c).name) {
      std::fprintf(stderr, "CSV column %d is '%s', schema expects '%s'\n", c,
                   names[static_cast<size_t>(c)].c_str(),
                   schema.attr(c).name.c_str());
      return 1;
    }
  }

  pb::PackedFileWriter writer(
      out, schema, rows, ContentGeneration("csv:" + csv_path, rows, 0));
  std::vector<pb::Value> row(static_cast<size_t>(schema.num_attrs()));
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = pb::SplitCsvLine(line);
    if (static_cast<int>(fields.size()) != schema.num_attrs()) {
      std::fprintf(stderr, "line %" PRId64 ": %zu fields, expected %d\n",
                   line_no, fields.size(), schema.num_attrs());
      return 1;
    }
    for (int c = 0; c < schema.num_attrs(); ++c) {
      const std::string& field = fields[static_cast<size_t>(c)];
      const std::optional<long long> v =
          pb::ParseCount(field, schema.Cardinality(c) - 1);
      if (!v) {
        std::fprintf(stderr,
                     "line %" PRId64 ": value '%s' out of domain for '%s'\n",
                     line_no, field.c_str(), schema.attr(c).name.c_str());
        return 1;
      }
      row[static_cast<size_t>(c)] = static_cast<pb::Value>(*v);
    }
    writer.AppendRow(row);
  }
  writer.Finish();
  std::printf("packed %s: %" PRId64 " rows x %d attrs -> %s\n",
              csv_path.c_str(), rows, schema.num_attrs(), out.c_str());
  return 0;
}

int Info(const std::string& path) {
  std::shared_ptr<const pb::ColumnBackend> backend =
      pb::ColumnBackend::Open(path);
  const pb::Schema& schema = backend->schema();
  std::printf("packed file    %s\n", path.c_str());
  std::printf("format version %u\n", backend->version());
  std::printf("generation     0x%016" PRIx64 "\n", backend->generation());
  std::printf("rows           %" PRId64 "\n", backend->num_rows());
  std::printf("attributes     %d\n", schema.num_attrs());
  std::printf("mapped bytes   %zu\n", backend->mapped_bytes());
  for (int a = 0; a < schema.num_attrs(); ++a) {
    const pb::TaxonomyTree& tax = schema.attr(a).taxonomy;
    std::printf("  [%2d] %-20s card %5d  levels %d  bits", a,
                schema.attr(a).name.c_str(), schema.Cardinality(a),
                tax.num_levels());
    for (int l = 0; l < tax.num_levels(); ++l) {
      std::printf(" %d", 1 << backend->Packed(a, l).log2_bits);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset, csv, schema_from, out, info;
  int64_t rows = 0;
  uint64_t seed = pb::BenchSeed();

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    auto next_count = [&]() -> int64_t {
      const std::optional<long long> value =
          pb::ParseCount(next(), std::numeric_limits<int64_t>::max());
      if (!value) Usage(argv[0]);
      return *value;
    };
    if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--csv") {
      csv = next();
    } else if (arg == "--schema-from") {
      schema_from = next();
    } else if (arg == "--rows") {
      rows = next_count();
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(next_count());
    } else if (arg == "--out") {
      out = next();
    } else if (arg == "--info") {
      info = next();
    } else {
      Usage(argv[0]);
    }
  }

  try {
    if (!info.empty()) return Info(info);
    if (!dataset.empty() && !out.empty()) {
      return PackDataset(dataset, rows, seed, out);
    }
    if (!csv.empty() && !schema_from.empty() && !out.empty()) {
      return PackCsv(csv, schema_from, out);
    }
    Usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
