#include "bn/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "bn/alias_table.h"
#include "bn/sample_kernels.h"
#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace privbayes {

namespace {

// Chunk-level sampler telemetry (global registry: samplers are per-model but
// the chunk clock answers a process-wide question — how fast does this box
// synthesize rows). Per-request timing lives in the serve layer's spans.
struct SamplerMetrics {
  Histogram* chunk_time;  // one SampleChunk call, ns (exposed as s)
  Counter* rows;          // synthetic rows materialized

  SamplerMetrics() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    chunk_time = reg.GetHistogram("privbayes_sampler_chunk_seconds", "",
                                  "NetworkSampler::SampleChunk wall time",
                                  1e-9);
    rows = reg.GetCounter("privbayes_sampler_rows_total", "",
                          "Synthetic rows materialized by SampleChunk");
  }
};

SamplerMetrics& GetSamplerMetrics() {
  static SamplerMetrics* m = new SamplerMetrics();
  return *m;
}

// Validates table/pair agreement and returns the child's cardinality.
int CheckPairTable(const Schema& schema, const APPair& pair,
                   const ProbTable& table) {
  PB_THROW_IF(table.num_vars() != static_cast<int>(pair.parents.size()) + 1,
              "conditional table arity mismatch for attribute " << pair.attr);
  for (size_t i = 0; i < pair.parents.size(); ++i) {
    PB_THROW_IF(table.vars()[i] != GenVarId(pair.parents[i]),
                "conditional table parent mismatch for attribute "
                    << pair.attr);
  }
  PB_THROW_IF(table.vars().back() != GenVarId(pair.attr),
              "conditional table child mismatch for attribute " << pair.attr);
  return schema.Cardinality(pair.attr);
}

}  // namespace

NetworkSampler::NetworkSampler(const Schema& schema, const BayesNet& net,
                               const ConditionalSet& conditionals)
    : schema_(&schema) {
  PB_THROW_IF(net.size() != schema.num_attrs(),
              "network covers " << net.size() << " of " << schema.num_attrs()
                                << " attributes");
  PB_THROW_IF(conditionals.conditionals.size() !=
                  static_cast<size_t>(net.size()),
              "conditional count mismatch");
  net.ValidateAgainst(schema);

  nodes_.resize(net.size());
  for (int i = 0; i < net.size(); ++i) {
    const APPair& pair = net.pair(i);
    const ProbTable& table = conditionals.conditionals[i];
    Node& node = nodes_[i];
    node.attr = pair.attr;
    node.child_card = CheckPairTable(schema, pair, table);
    node.table = &table;
    // The SIMD kernels compute slice and cell indices in 32-bit lanes; a
    // table past 2^31 cells (16+ GiB of doubles) would wrap them.
    PB_THROW_IF(table.size() > size_t{1} << 31,
                "conditional table for attribute "
                    << pair.attr << " too large for the sampling kernels");

    // Parent strides in units of child slices: the table is row-major with
    // the child last (stride 1), so parent p's flat stride divided by the
    // child cardinality is its slice stride.
    const size_t num_parents = pair.parents.size();
    node.parents.resize(num_parents);
    size_t stride = 1;
    for (size_t p = num_parents; p-- > 0;) {
      const GenAttr& g = pair.parents[p];
      ParentRef& ref = node.parents[p];
      ref.attr = g.attr;
      ref.stride = static_cast<uint32_t>(stride);
      ref.leaf_map = g.level == 0
                         ? nullptr
                         : schema.attr(g.attr).taxonomy.LeafMapAt(g.level)
                               .data();
      stride *= static_cast<size_t>(table.card(static_cast<int>(p)));
    }

    const size_t num_slices =
        table.size() / static_cast<size_t>(node.child_card);
    const std::vector<double>& cells = table.values();
    if (node.child_card <= 2) {
      // Stream v2 draws binary children by thresholding the uniform against
      // P[child=0 | slice] directly — no alias table. Same degenerate-slice
      // conventions as AliasTable: negative weights throw, an all-zero slice
      // falls back to uniform.
      node.thresholds.resize(num_slices);
      for (size_t s = 0; s < num_slices; ++s) {
        const double* w = cells.data() + s * static_cast<size_t>(node.child_card);
        const double w0 = w[0];
        const double w1 = node.child_card == 2 ? w[1] : 0.0;
        PB_THROW_IF(w0 < 0 || w1 < 0, "negative weight in conditional slice");
        const double sum = w0 + w1;
        node.thresholds[s] =
            sum > 0 ? w0 / sum : (node.child_card == 2 ? 0.5 : 1.0);
      }
    } else {
      node.alias_offset = alias_prob_.size();
      for (size_t s = 0; s < num_slices; ++s) {
        AliasTable slice_table(std::span<const double>(
            cells.data() + s * static_cast<size_t>(node.child_card),
            static_cast<size_t>(node.child_card)));
        alias_prob_.insert(alias_prob_.end(), slice_table.probs().begin(),
                           slice_table.probs().end());
        alias_value_.insert(alias_value_.end(), slice_table.aliases().begin(),
                            slice_table.aliases().end());
      }
    }
  }
  // Sentinel pad: the SIMD alias kernels fetch 16-bit entries with 32-bit
  // gathers, reading 2 bytes past the last cell they touch.
  alias_value_.push_back(Value{0});
}

void NetworkSampler::ResolveSlices(const Node& node, const Value* const* cols,
                                   int64_t row_begin, int64_t row_end,
                                   uint32_t* slices) {
  const size_t n = static_cast<size_t>(row_end - row_begin);
  for (size_t p = 0; p < node.parents.size(); ++p) {
    const ParentRef& ref = node.parents[p];
    const Value* col = cols[ref.attr] + row_begin;
    const uint32_t stride = ref.stride;
    const Value* map = ref.leaf_map;
    // First parent assigns, the rest accumulate; the leaf-map branch is
    // hoisted out of the row loop so each variant vectorizes cleanly.
    if (p == 0) {
      if (map) {
        for (size_t i = 0; i < n; ++i) slices[i] = stride * map[col[i]];
      } else {
        for (size_t i = 0; i < n; ++i) slices[i] = stride * col[i];
      }
    } else {
      if (map) {
        for (size_t i = 0; i < n; ++i) slices[i] += stride * map[col[i]];
      } else {
        for (size_t i = 0; i < n; ++i) slices[i] += stride * col[i];
      }
    }
  }
}

void NetworkSampler::SampleShard(const std::vector<Value*>& cols,
                                 int64_t row_begin, int64_t row_end,
                                 uint64_t shard_seed) const {
  const SampleKernels kernels = SelectSampleKernels();
  const size_t n = static_cast<size_t>(row_end - row_begin);
  // Per-thread scratch, retained across shards (pool threads persist): one
  // uniform block and one slice-index block of at most kShardRows entries.
  thread_local std::vector<double> uniforms;
  thread_local std::vector<uint32_t> slices;
  if (uniforms.size() < n) uniforms.resize(n);
  if (slices.size() < n) slices.resize(n);

  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    // Stream v2: node i's uniforms are an independent 4-lane block keyed by
    // (shard seed, node index) — see kSampleStreamVersion.
    kernels.fill_uniform(DeriveSeed(shard_seed, i), n, uniforms.data());
    Value* out = cols[node.attr] + row_begin;
    const bool binary = node.child_card <= 2;
    if (node.parents.empty()) {
      if (binary) {
        kernels.threshold_root(uniforms.data(), n, node.thresholds[0], out);
      } else {
        kernels.alias_root(uniforms.data(), n,
                           alias_prob_.data() + node.alias_offset,
                           alias_value_.data() + node.alias_offset,
                           static_cast<uint32_t>(node.child_card), out);
      }
    } else {
      ResolveSlices(node, cols.data(), row_begin, row_end, slices.data());
      if (binary) {
        kernels.threshold(uniforms.data(), slices.data(), n,
                          node.thresholds.data(), out);
      } else {
        kernels.alias(uniforms.data(), slices.data(), n,
                      alias_prob_.data() + node.alias_offset,
                      alias_value_.data() + node.alias_offset,
                      static_cast<uint32_t>(node.child_card), out);
      }
    }
  }
}

Dataset NetworkSampler::Sample(int64_t num_rows, Rng& rng) const {
  // One seed drawn from the caller's stream, one derived stream per
  // fixed-size shard: the synthetic table is a pure function of the incoming
  // Rng state, whether shards run on one thread or many.
  return SampleChunk(rng.engine()(), /*first_shard=*/0, num_rows);
}

Dataset NetworkSampler::SampleChunk(uint64_t base_seed, int64_t first_shard,
                                    int64_t num_rows) const {
  PB_THROW_IF(num_rows < 0, "negative row count");
  PB_THROW_IF(first_shard < 0, "negative shard index");
  SamplerMetrics& metrics = GetSamplerMetrics();
  const uint64_t t0 = MonotonicNowNs();
  const int d = schema_->num_attrs();
  std::vector<std::vector<Value>> columns(
      d, std::vector<Value>(static_cast<size_t>(num_rows)));
  std::vector<Value*> cols(d);
  for (int c = 0; c < d; ++c) cols[c] = columns[c].data();

  const int64_t rows = num_rows;
  const int64_t num_shards = (rows + kShardRows - 1) / kShardRows;
  auto sample_shards = [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      const int64_t row_begin = static_cast<int64_t>(s) * kShardRows;
      const int64_t row_end = std::min<int64_t>(rows, row_begin + kShardRows);
      const uint64_t shard_seed =
          DeriveSeed(base_seed, static_cast<uint64_t>(first_shard) + s);
      SampleShard(cols, row_begin, row_end, shard_seed);
    }
  };
  ParallelFor(static_cast<size_t>(num_shards), sample_shards,
              /*min_per_thread=*/1);
  metrics.chunk_time->Record(MonotonicNowNs() - t0);
  metrics.rows->Add(static_cast<uint64_t>(num_rows));
  return Dataset::FromColumns(*schema_, std::move(columns));
}

double NetworkSampler::LogLikelihood(const Dataset& data,
                                     double floor_prob) const {
  PB_THROW_IF(data.num_attrs() != schema_->num_attrs(),
              "network/schema mismatch");
  const int64_t n = data.num_rows();
  const int d = data.num_attrs();
  // Pin Value columns through the store: they decode from the packed words
  // into the generalized-column cache for the duration of this pass.
  std::shared_ptr<const ColumnStore> store = data.store();
  std::vector<ColumnStore::PinnedColumn> pins(d);
  std::vector<const Value*> cols(d);
  for (int c = 0; c < d; ++c) {
    pins[c] = store->PinColumn(c, 0);
    cols[c] = pins[c].get();
  }

  const int64_t num_shards = (n + kShardRows - 1) / kShardRows;
  std::vector<double> partial(static_cast<size_t>(std::max<int64_t>(num_shards, 1)),
                              0.0);
  ParallelFor(
      static_cast<size_t>(num_shards),
      [&](size_t begin, size_t end) {
        thread_local std::vector<uint32_t> slices;
        thread_local std::vector<double> acc;
        for (size_t s = begin; s < end; ++s) {
          const int64_t row_begin = static_cast<int64_t>(s) * kShardRows;
          const int64_t row_end = std::min<int64_t>(n, row_begin + kShardRows);
          const size_t rows = static_cast<size_t>(row_end - row_begin);
          if (slices.size() < rows) slices.resize(rows);
          if (acc.size() < rows) acc.resize(rows);
          std::fill_n(acc.begin(), rows, 0.0);
          // Column-at-a-time like the sampler, accumulating per row: slice
          // resolution is shared with SampleShard via ResolveSlices.
          for (const Node& node : nodes_) {
            const double* cells = node.table->values().data();
            const size_t card = static_cast<size_t>(node.child_card);
            const Value* child = cols[node.attr] + row_begin;
            if (node.parents.empty()) {
              for (size_t r = 0; r < rows; ++r) {
                acc[r] += std::log2(std::max(cells[child[r]], floor_prob));
              }
            } else {
              ResolveSlices(node, cols.data(), row_begin, row_end,
                            slices.data());
              for (size_t r = 0; r < rows; ++r) {
                acc[r] += std::log2(std::max(
                    cells[static_cast<size_t>(slices[r]) * card + child[r]],
                    floor_prob));
              }
            }
          }
          double total = 0;
          for (size_t r = 0; r < rows; ++r) total += acc[r];
          partial[s] = total;
        }
      },
      /*min_per_thread=*/1);
  // Summed in shard order: bit-identical across thread counts.
  double total = 0;
  for (double p : partial) total += p;
  return total;
}

Dataset SampleFromNetwork(const Schema& schema, const BayesNet& net,
                          const ConditionalSet& conditionals, int64_t num_rows,
                          Rng& rng) {
  return NetworkSampler(schema, net, conditionals).Sample(num_rows, rng);
}

double LogLikelihood(const Dataset& data, const BayesNet& net,
                     const ConditionalSet& conditionals, double floor_prob) {
  PB_THROW_IF(net.size() != data.num_attrs(), "network/schema mismatch");
  return NetworkSampler(data.schema(), net, conditionals)
      .LogLikelihood(data, floor_prob);
}

}  // namespace privbayes
