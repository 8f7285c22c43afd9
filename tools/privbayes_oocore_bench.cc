// privbayes_oocore_bench: fit + sample a packed dataset and report peak
// memory.
//
// The headline number is peak RSS: a fit over an mmap-backed dataset keeps
// it a small fraction of the raw dataset size, because the packed pages are
// evictable page cache and no raw Value column is ever materialized.
// --mode memory runs the identical fit after decoding the dataset into heap
// memory — the contrast the CI out-of-core lane asserts on under a hard
// address-space cap.
//
//   privbayes_oocore_bench --packed FILE [--mode packed|memory]
//                          [--epsilon E] [--sample-rows N] [--json]
//
// Output (one line per metric, or a JSON object with --json):
//   rows, raw_bytes (rows x attrs x sizeof(Value)), fit_seconds,
//   sample_seconds, sample_rows, peak_rss_kb (VmHWM), vm_peak_kb (VmPeak,
//   what `ulimit -v` caps), rss_fraction_of_raw

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/flags.h"
#include "common/random.h"
#include "core/privbayes.h"
#include "data/column_backend.h"
#include "data/dataset.h"
#include "data/packed_codec.h"

namespace pb = privbayes;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --packed FILE [--mode packed|memory] [--epsilon E]"
               " [--sample-rows N] [--json]\n",
               argv0);
  std::exit(2);
}

double NowSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Materializes the packed file into a resident heap dataset, decoding each
// level-0 slice straight into its column (the memory-mode baseline).
pb::Dataset MaterializeResident(const pb::Dataset& packed) {
  std::shared_ptr<const pb::ColumnStore> store = packed.store();
  const pb::ColumnBackend& backend = store->backend();
  std::vector<std::vector<pb::Value>> columns(
      static_cast<size_t>(packed.num_attrs()));
  for (int c = 0; c < packed.num_attrs(); ++c) {
    const pb::PackedSlice s = backend.Packed(c, 0);
    std::vector<pb::Value>& column = columns[static_cast<size_t>(c)];
    column.resize(static_cast<size_t>(packed.num_rows()));
    pb::UnpackValues(s.bytes(), column.size(), s.log2_bits, column.data());
    backend.ReleaseResidency(c, 0);
  }
  return pb::Dataset::FromColumns(packed.schema(), std::move(columns));
}

}  // namespace

int main(int argc, char** argv) {
  std::string packed_path, mode = "packed";
  double epsilon = 1.0;
  int64_t sample_rows = 1 << 20;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--packed") {
      packed_path = next();
    } else if (arg == "--mode") {
      mode = next();
    } else if (arg == "--epsilon") {
      const std::optional<double> value =
          pb::ParseNonNegativeDouble(next());
      if (!value) Usage(argv[0]);
      epsilon = *value;
    } else if (arg == "--sample-rows") {
      const std::optional<long long> value =
          pb::ParseCount(next(), std::numeric_limits<int64_t>::max());
      if (!value) Usage(argv[0]);
      sample_rows = *value;
    } else if (arg == "--json") {
      json = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (packed_path.empty() || (mode != "packed" && mode != "memory")) {
    Usage(argv[0]);
  }

  try {
    pb::Dataset data = pb::Dataset::FromPackedFile(packed_path);
    const int64_t rows = data.num_rows();
    const double raw_bytes = static_cast<double>(rows) *
                             static_cast<double>(data.num_attrs()) *
                             static_cast<double>(sizeof(pb::Value));
    if (mode == "memory") {
      data = MaterializeResident(data);
    }

    pb::PrivBayesOptions options;
    options.epsilon = epsilon;
    // Data-independent exponential-mechanism candidate cap (privacy-neutral:
    // the candidates are drawn without looking at the data): this bench
    // measures the storage backend, not exact candidate enumeration.
    options.candidate_cap = 200;
    pb::PrivBayes mechanism(options);
    pb::Rng rng(pb::BenchSeed());

    const double t_fit = NowSeconds();
    pb::PrivBayesModel model = mechanism.Fit(data, rng);
    const double fit_seconds = NowSeconds() - t_fit;

    const double t_sample = NowSeconds();
    pb::Dataset synthetic = pb::SampleSyntheticData(model, sample_rows, rng);
    const double sample_seconds = NowSeconds() - t_sample;
    if (synthetic.num_rows() != sample_rows) return 1;

    const int64_t peak_kb = pb::PeakRssKb();
    const int64_t vm_peak_kb = pb::PeakVmKb();
    const double fraction =
        raw_bytes > 0 ? static_cast<double>(peak_kb) * 1024.0 / raw_bytes : 0;
    if (json) {
      std::printf(
          "{\"mode\":\"%s\",\"rows\":%" PRId64
          ",\"raw_bytes\":%.0f,\"fit_seconds\":%.3f,"
          "\"sample_seconds\":%.3f,\"sample_rows\":%" PRId64
          ",\"peak_rss_kb\":%" PRId64 ",\"vm_peak_kb\":%" PRId64
          ",\"rss_fraction_of_raw\":%.4f}\n",
          mode.c_str(), rows, raw_bytes, fit_seconds, sample_seconds,
          sample_rows, peak_kb, vm_peak_kb, fraction);
    } else {
      std::printf("mode                 %s\n", mode.c_str());
      std::printf("rows                 %" PRId64 "\n", rows);
      std::printf("raw_bytes            %.0f\n", raw_bytes);
      std::printf("fit_seconds          %.3f\n", fit_seconds);
      std::printf("sample_seconds       %.3f\n", sample_seconds);
      std::printf("sample_rows          %" PRId64 "\n", sample_rows);
      std::printf("peak_rss_kb          %" PRId64 "\n", peak_kb);
      std::printf("vm_peak_kb           %" PRId64 "\n", vm_peak_kb);
      std::printf("rss_fraction_of_raw  %.4f\n", fraction);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
