// MarginalStore: process-wide, snapshot-keyed cache of empirical joint
// counts — the cross-run layer above data/column_store.h.
//
// PrivBayes spends nearly all of its non-noise compute materializing
// low-dimensional joints: the greedy structure search (§4) counts one per
// candidate per iteration, the noisy conditionals (§5) one per AP pair, and
// the marginal/SVM evaluation workloads (§7) one per query — and ε sweeps,
// β/θ ablations and the figure benches repeat all of that on the *same*
// immutable data dozens of times. The per-learn memo PR 2 put inside the
// greedy loop only shared joints within one learn; this store shares them
// across learns, across mechanisms (PrivBayes, MWEM, the Laplace/contingency
// baselines, the evaluation workloads) and across serving refits, because
// they all key off the same thing: an immutable ColumnStore snapshot.
//
// Keying. An entry is identified by (ColumnStore::snapshot_id, sorted GenAttr
// set). Snapshot ids come from a process-global counter assigned at snapshot
// construction and are never reused. A Dataset is immutable and all its
// copies share one snapshot, so an id always names the same rows: copies
// share joints, and a dataset that differs in even one cell was built
// separately, has its own snapshot and id, and can never be served another
// dataset's counts. Tables are stored in CANONICAL
// order (vars sorted by GenVarId), so one entry serves every parent/child
// arrangement of the same attribute set; callers that need a specific order
// use CountsOrdered, which permutes the canonical cells. Counts are exact
// integers accumulated per cell, so the permuted table is bit-identical to
// counting directly in the requested order — the property the equivalence
// tests lock in.
//
// Concurrency. The map is sharded by key hash; each shard has its own mutex
// and an exact LRU list, and counting itself runs outside any lock. Two
// threads that miss the same key concurrently both count (deterministically
// identical tables) and the first insert wins. The byte budget is split
// evenly across shards; inserting past a shard's slice evicts from that
// shard's LRU tail, and an entry bigger than the slice is returned uncached.
// Eviction is purely a performance event — an evicted joint is simply
// recounted on the next ask (unlike the old per-learn memo, entries are not
// pinned for a learn's lifetime, so a working set far beyond the budget can
// thrash; size the budget to the sweep, not the other way around).
//
// PRIVBAYES_MARGINAL_CACHE configures the store at first use:
//   off | 0 | false      — disabled; every call counts directly (the CI
//                          guard job runs the whole suite this way)
//   on | 1 | auto | ""   — enabled with the default byte cap
//   <integer >= 2>       — enabled with that many bytes of budget
// Any other text ("64kb") throws std::invalid_argument naming the variable
// when the store is first used, instead of running on the default cap.

#ifndef PRIVBAYES_DATA_MARGINAL_STORE_H_
#define PRIVBAYES_DATA_MARGINAL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "data/dataset.h"
#include "prob/prob_table.h"

namespace privbayes {

/// Aggregated counters of the store (monotonic except bytes/entries, which
/// track residency). `skipped` counts uncacheable requests: the store was
/// disabled, the set was empty, or the table exceeded a shard's byte slice.
struct MarginalStoreStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t skipped = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

/// Parsed PRIVBAYES_MARGINAL_CACHE value (exposed for tests). Throws
/// std::invalid_argument on text outside the forms listed above.
struct MarginalCacheConfig {
  bool enabled = true;
  size_t byte_budget = 0;  ///< 0 selects the default cap
};
MarginalCacheConfig MarginalCacheConfigFromString(const char* value);

class MarginalStore {
 public:
  /// The process-wide instance every counting consumer shares.
  static MarginalStore& Instance();

  /// Joint counts of `gattrs` on `data`'s current snapshot, in CANONICAL
  /// variable order (sorted by GenVarId). Cached; counts on miss. The
  /// returned table is immutable and stays valid after eviction. `was_hit`
  /// (optional) reports whether this call was served from the cache.
  std::shared_ptr<const ProbTable> Counts(const Dataset& data,
                                          std::span<const GenAttr> gattrs,
                                          bool* was_hit = nullptr);

  /// Level-0 convenience: ascending `attrs` are already canonical, so the
  /// returned table can be read in place with no reorder or copy.
  std::shared_ptr<const ProbTable> Counts(const Dataset& data,
                                          std::span<const int> attrs,
                                          bool* was_hit = nullptr);

  /// Joint counts with variables in exactly the caller's `gattrs` order —
  /// bit-identical to Dataset::JointCountsGeneralized(gattrs) whether the
  /// cache is enabled, disabled, hit or missed. Returns a fresh table the
  /// caller may mutate (normalize, noise, ...).
  ProbTable CountsOrdered(const Dataset& data, std::span<const GenAttr> gattrs,
                          bool* was_hit = nullptr);

  /// Convenience for level-0 attribute sets (Dataset::JointCounts shape).
  ProbTable CountsOrdered(const Dataset& data, std::span<const int> attrs,
                          bool* was_hit = nullptr);

  bool enabled() const { return enabled_; }
  size_t byte_budget() const { return byte_budget_; }

  /// Counter snapshot aggregated across shards.
  MarginalStoreStats stats() const;

  /// One-line human-readable stats summary ("N hits / M misses (H% hit
  /// rate), ...") shared by the serving daemon and the bench reporters so
  /// there is exactly one formatter to keep in sync with the counters.
  std::string StatsString() const;

  /// Drops every entry and zeroes the counters; configuration is kept.
  /// (Benches use this to measure the cold path.)
  void Clear();

  /// Test hooks: force a configuration (entries and counters are dropped) /
  /// restore the PRIVBAYES_MARGINAL_CACHE-derived default. `num_shards`
  /// must be a power of two; 1 gives a single exactly-LRU shard.
  void ConfigureForTesting(bool enabled, size_t byte_budget,
                           size_t num_shards = kNumShards);
  void ResetFromEnv();

  static constexpr size_t kNumShards = 16;
  /// Default budget when PRIVBAYES_MARGINAL_CACHE doesn't name one: 256 MB.
  static constexpr size_t kDefaultByteBudget = size_t{256} << 20;

 private:
  MarginalStore();
  ~MarginalStore();
  MarginalStore(const MarginalStore&) = delete;
  MarginalStore& operator=(const MarginalStore&) = delete;

  struct Shard;

  void Configure(bool enabled, size_t byte_budget, size_t num_shards);

  bool enabled_ = true;
  size_t byte_budget_ = kDefaultByteBudget;
  size_t num_shards_ = kNumShards;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_MARGINAL_STORE_H_
