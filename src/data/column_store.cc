#include "data/column_store.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "data/count_kernels.h"

namespace privbayes {

namespace {

// Row-sharded counting engages above this row count (below it, the shard
// bookkeeping costs more than the pass) and only for histograms small
// enough that per-shard partials stay cache-friendly.
constexpr int64_t kParallelMinRows = 1 << 15;
constexpr size_t kParallelMaxCells = 1 << 20;

// Reusable per-thread integer histogram: counting allocates nothing after
// the first call on each thread.
std::vector<int64_t>& ThreadScratch(size_t cells) {
  thread_local std::vector<int64_t> scratch;
  if (scratch.size() < cells) scratch.resize(cells);
  std::memset(scratch.data(), 0, cells * sizeof(int64_t));
  return scratch;
}

// Shared shard/merge scaffold of both kernels. Runs count_range(begin, end,
// counts) over [0, units): sharded across the pool with per-shard partial
// histograms merged in shard order when `want_parallel` holds and the
// histogram is small enough (so counts stay bit-identical across thread
// counts), else one serial pass into the reusable per-thread scratch.
// Either way the integer histogram is added into `cells`.
template <typename CountRangeFn>
void ShardedAccumulate(size_t units, bool want_parallel,
                       std::span<double> cells, CountRangeFn&& count_range) {
  const size_t num_cells = cells.size();
  ThreadPool& pool = ThreadPool::Global();
  const size_t shards = pool.num_threads();
  if (want_parallel && shards > 1 && num_cells <= kParallelMaxCells &&
      !ThreadPool::InParallelRegion()) {
    std::vector<std::vector<int64_t>> partials(
        shards, std::vector<int64_t>(num_cells, 0));
    const size_t per_shard = (units + shards - 1) / shards;
    pool.ParallelFor(
        shards,
        [&](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            count_range(s * per_shard, std::min(units, (s + 1) * per_shard),
                        partials[s].data());
          }
        },
        /*min_per_thread=*/1);
    for (const std::vector<int64_t>& partial : partials) {
      for (size_t c = 0; c < num_cells; ++c) {
        cells[c] += static_cast<double>(partial[c]);
      }
    }
    return;
  }

  std::vector<int64_t>& scratch = ThreadScratch(num_cells);
  count_range(0, units, scratch.data());
  for (size_t c = 0; c < num_cells; ++c) {
    cells[c] += static_cast<double>(scratch[c]);
  }
}

// Rows per radix block: the u32 cell-index block (2 KB) stays in L1 while
// every column folds into it. A multiple of 64, so with 64-row shard units
// every block starts word-aligned.
constexpr size_t kRadixBlockRows = 512;

// One column of the radix kernel: its words, the width-specialized fold
// step, and the cardinality that scales the running index.
struct FoldCol {
  const uint64_t* words;
  PackedFoldFn fold;
  uint32_t card;
};

// Counts rows [begin, end), `begin` a multiple of 64: per block, fold every
// column into the cell index, then one histogram pass.
void RadixCountRange(const FoldCol* cols, int k, size_t begin, size_t end,
                     int64_t* counts) {
  alignas(64) uint32_t idx[kRadixBlockRows] = {};
  for (size_t b = begin; b < end; b += kRadixBlockRows) {
    const size_t rows = std::min(kRadixBlockRows, end - b);
    for (int j = 0; j < k; ++j) {
      cols[j].fold(cols[j].words, b, rows, cols[j].card, idx);
    }
    for (size_t i = 0; i < rows; ++i) ++counts[idx[i]];
  }
}

uint64_t NextHeapSnapshotId() {
  static std::atomic<uint64_t> next_snapshot_id{1};
  return next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
}

// File-backed snapshot ids live in a namespace heap ids can never reach.
constexpr uint64_t kFileSnapshotBit = uint64_t{1} << 63;

}  // namespace

ColumnStore::ColumnStore(const Schema& schema,
                         const std::vector<std::vector<Value>>& columns,
                         int64_t num_rows)
    : ColumnStore(std::make_shared<const ColumnBackend>(schema, columns,
                                                        num_rows)) {}

ColumnStore::ColumnStore(std::shared_ptr<const ColumnBackend> backend)
    : num_rows_(backend->num_rows()), backend_(std::move(backend)) {
  const Schema& schema = backend_->schema();
  const uint64_t generation = backend_->generation();
  snapshot_id_ = generation != 0 ? (kFileSnapshotBit | generation)
                                 : NextHeapSnapshotId();
  const int d = schema.num_attrs();
  binary_.assign(d, 0);
  cards_.resize(d);
  for (int a = 0; a < d; ++a) {
    binary_[a] = schema.Cardinality(a) == 2;
    const TaxonomyTree& tax = schema.attr(a).taxonomy;
    const int levels = tax.num_levels();
    cards_[a].resize(levels);
    for (int l = 0; l < levels; ++l) cards_[a][l] = tax.CardinalityAt(l);
  }
}

void ColumnStore::AccumulateCounts(std::span<const GenAttr> gattrs,
                                   std::span<double> cells) const {
  const int k = static_cast<int>(gattrs.size());
  PB_CHECK(k > 0);
  size_t expect = 1;
  bool all_packed = k <= kMaxPackedAttrs;
  for (const GenAttr& g : gattrs) {
    PB_CHECK(g.attr >= 0 && g.attr < static_cast<int>(cards_.size()));
    PB_CHECK(g.level >= 0 && g.level < static_cast<int>(cards_[g.attr].size()));
    expect *= static_cast<size_t>(cards_[g.attr][g.level]);
    all_packed = all_packed && g.level == 0 && packed(g.attr);
  }
  PB_CHECK(expect == cells.size());
  if (all_packed) {
    CountPacked(gattrs, cells);
  } else {
    CountRadix(gattrs, cells);
  }
  // The pass is over: let a mapped store's scanned slices leave the
  // resident set. This bounds peak RSS by one pass's working set; without it
  // an unpressured kernel keeps every slice ever counted resident and a long
  // fit converges on the whole file being in RSS.
  for (const GenAttr& g : gattrs) backend_->ReleaseResidency(g.attr, g.level);
}

void ColumnStore::CountPacked(std::span<const GenAttr> gattrs,
                              std::span<double> cells) const {
  const int k = static_cast<int>(gattrs.size());
  const uint64_t n = static_cast<uint64_t>(num_rows_);
  const size_t words = static_cast<size_t>((n + 63) / 64);
  const uint64_t* bits[kMaxPackedAttrs];
  for (int j = 0; j < k; ++j) bits[j] = packed_words(gattrs[j].attr).data();
  // Bits past row n−1 are zero in every packed column, so the tail block's
  // root mask must clear them too.
  const uint64_t tail_mask =
      (n & 63) == 0 ? ~uint64_t{0} : (uint64_t{1} << (n & 63)) - 1;

  const PackedCountFn range_fn = SelectPackedKernel(k);
  ShardedAccumulate(
      words, num_rows_ >= kParallelMinRows, cells,
      [&](size_t block_begin, size_t block_end, int64_t* counts) {
        range_fn(bits, block_begin, block_end, words - 1, tail_mask, counts);
      });
}

void ColumnStore::CountRadix(std::span<const GenAttr> gattrs,
                             std::span<double> cells) const {
  const int k = static_cast<int>(gattrs.size());
  PB_CHECK(cells.size() <= UINT32_MAX);  // the fold's u32 cell index
  std::vector<FoldCol> cols(k);
  for (int j = 0; j < k; ++j) {
    const PackedSlice s = backend_->Packed(gattrs[j].attr, gattrs[j].level);
    cols[j].words = s.words;
    cols[j].fold = SelectPackedFold(s.log2_bits, /*leading=*/j == 0);
    cols[j].card = static_cast<uint32_t>(cards_[gattrs[j].attr][gattrs[j].level]);
  }
  const size_t n = static_cast<size_t>(num_rows_);
  ShardedAccumulate((n + 63) / 64, num_rows_ >= kParallelMinRows, cells,
                    [&](size_t unit_begin, size_t unit_end, int64_t* counts) {
                      RadixCountRange(cols.data(), k, unit_begin * 64,
                                      std::min(n, unit_end * 64), counts);
                    });
}

}  // namespace privbayes
