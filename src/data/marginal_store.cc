#include "data/marginal_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "data/column_store.h"
#include "obs/metrics.h"

namespace privbayes {

namespace {

// Resolve-time histograms in the global registry (one marginal store per
// fitted model server in practice, and the store itself is process-shared
// state, so global scope is the honest one). result="hit" is the locked map
// probe; result="miss" includes the counting pass.
struct StoreMetrics {
  Histogram* hit_time;
  Histogram* miss_time;

  StoreMetrics() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    hit_time = reg.GetHistogram("privbayes_marginal_resolve_seconds",
                                "result=\"hit\"",
                                "MarginalStore::Counts resolve time", 1e-9);
    miss_time = reg.GetHistogram("privbayes_marginal_resolve_seconds",
                                 "result=\"miss\"",
                                 "MarginalStore::Counts resolve time", 1e-9);
  }
};

StoreMetrics& GetStoreMetrics() {
  static StoreMetrics* m = new StoreMetrics();
  return *m;
}

// Charges the elapsed time to the hit or miss histogram on scope exit, so
// every return path out of Counts() is covered.
struct ResolveTimer {
  uint64_t t0 = MonotonicNowNs();
  bool hit = false;
  ~ResolveTimer() {
    StoreMetrics& m = GetStoreMetrics();
    (hit ? m.hit_time : m.miss_time)->Record(MonotonicNowNs() - t0);
  }
};

// Canonical key order: sorted by GenVarId, which is strictly monotone in
// (attr, level), so one key covers every arrangement of the same set.
std::vector<GenAttr> SortedSet(std::span<const GenAttr> gattrs) {
  std::vector<GenAttr> sorted(gattrs.begin(), gattrs.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::vector<GenAttr> ToLevelZero(std::span<const int> attrs) {
  std::vector<GenAttr> gattrs;
  gattrs.reserve(attrs.size());
  for (int a : attrs) gattrs.push_back(GenAttr{a, 0});
  return gattrs;
}

bool IsCanonicalOrder(std::span<const GenAttr> gattrs) {
  for (size_t i = 1; i < gattrs.size(); ++i) {
    if (!(gattrs[i - 1] < gattrs[i])) return false;
  }
  return true;
}

// 8 bytes of snapshot id + 2 bytes per sorted GenVarId: order-insensitive
// (the caller sorts) and collision-free (GenVarId is injective).
std::string KeyOf(uint64_t snapshot_id, std::span<const GenAttr> sorted) {
  std::string key;
  key.reserve(8 + 2 * sorted.size());
  for (int b = 0; b < 8; ++b) {
    key.push_back(static_cast<char>((snapshot_id >> (8 * b)) & 0xFF));
  }
  for (const GenAttr& g : sorted) {
    int id = GenVarId(g);
    // Two bytes cover attr < 4096 (kGenVarStride = 16); a wider schema must
    // widen the key, not silently collide.
    PB_CHECK_MSG(id >= 0 && id <= 0xFFFF, "GenVarId overflows cache key");
    key.push_back(static_cast<char>(id & 0xFF));
    key.push_back(static_cast<char>((id >> 8) & 0xFF));
  }
  return key;
}

// Table shell (vars/cards) for a counting call — the same shell
// Dataset::JointCountsGeneralized builds.
ProbTable MakeShell(const Schema& schema, std::span<const GenAttr> gattrs) {
  std::vector<int> vars, cards;
  vars.reserve(gattrs.size());
  cards.reserve(gattrs.size());
  for (const GenAttr& g : gattrs) {
    PB_THROW_IF(g.attr < 0 || g.attr >= schema.num_attrs(),
                "attribute index " << g.attr << " out of range");
    vars.push_back(GenVarId(g));
    cards.push_back(schema.CardinalityAt(g.attr, g.level));
  }
  return ProbTable(std::move(vars), std::move(cards));
}

std::shared_ptr<const ProbTable> CountCanonical(
    const Schema& schema, const ColumnStore& snapshot,
    std::span<const GenAttr> sorted) {
  auto table = std::make_shared<ProbTable>(MakeShell(schema, sorted));
  snapshot.AccumulateCounts(sorted, table->values());
  return table;
}

// Resident cost of one entry: the cells plus map/list/key bookkeeping.
size_t EntryBytes(const ProbTable& table, size_t key_size) {
  return table.size() * sizeof(double) + 2 * key_size + 160;
}

std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};
std::atomic<uint64_t> g_evictions{0};
std::atomic<uint64_t> g_skipped{0};

}  // namespace

MarginalCacheConfig MarginalCacheConfigFromString(const char* value) {
  MarginalCacheConfig config;
  if (value == nullptr) return config;
  std::string v(value);
  if (v.empty() || v == "on" || v == "1" || v == "auto") return config;
  if (v == "off" || v == "0" || v == "false") {
    config.enabled = false;
    return config;
  }
  // "0" and "1" are taken above, so any count left is a budget of >= 2.
  const std::optional<long long> bytes =
      ParseCount(v, std::numeric_limits<long long>::max());
  PB_THROW_IF(!bytes, "PRIVBAYES_MARGINAL_CACHE='"
                          << v
                          << "' is not off|0|false, on|1|auto or a whole "
                             "byte budget");
  config.byte_budget = static_cast<size_t>(*bytes);
  return config;
}

struct MarginalStore::Shard {
  struct Entry {
    std::shared_ptr<const ProbTable> table;
    size_t bytes = 0;
    std::list<std::string>::iterator lru;  // position in this shard's list
  };

  std::mutex mu;
  std::unordered_map<std::string, Entry> map;
  std::list<std::string> lru;  // front = most recently used
  size_t bytes = 0;
};

MarginalStore::MarginalStore() { ResetFromEnv(); }
MarginalStore::~MarginalStore() = default;

MarginalStore& MarginalStore::Instance() {
  // Leaked singleton: consumers (and their worker threads) may count during
  // static destruction.
  static MarginalStore* store = new MarginalStore();
  return *store;
}

void MarginalStore::Configure(bool enabled, size_t byte_budget,
                              size_t num_shards) {
  PB_CHECK_MSG(num_shards > 0 && (num_shards & (num_shards - 1)) == 0,
               "shard count must be a power of two");
  enabled_ = enabled;
  byte_budget_ = byte_budget;
  num_shards_ = num_shards;
  shards_ = std::make_unique<Shard[]>(num_shards);
  g_hits = g_misses = g_evictions = g_skipped = 0;
}

void MarginalStore::ResetFromEnv() {
  MarginalCacheConfig config =
      MarginalCacheConfigFromString(std::getenv("PRIVBAYES_MARGINAL_CACHE"));
  Configure(config.enabled,
            config.byte_budget > 0 ? config.byte_budget : kDefaultByteBudget,
            kNumShards);
}

void MarginalStore::ConfigureForTesting(bool enabled, size_t byte_budget,
                                        size_t num_shards) {
  Configure(enabled, byte_budget, num_shards);
}

void MarginalStore::Clear() {
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    shards_[s].map.clear();
    shards_[s].lru.clear();
    shards_[s].bytes = 0;
  }
  g_hits = g_misses = g_evictions = g_skipped = 0;
}

std::string MarginalStore::StatsString() const {
  MarginalStoreStats m = stats();
  double total = static_cast<double>(m.hits + m.misses);
  char line[256];
  std::snprintf(
      line, sizeof(line),
      "%llu hits / %llu misses (%.1f%% hit rate), %llu evictions, "
      "%llu skipped, %llu entries, %llu bytes of %llu%s",
      static_cast<unsigned long long>(m.hits),
      static_cast<unsigned long long>(m.misses),
      total > 0 ? 100.0 * static_cast<double>(m.hits) / total : 0.0,
      static_cast<unsigned long long>(m.evictions),
      static_cast<unsigned long long>(m.skipped),
      static_cast<unsigned long long>(m.entries),
      static_cast<unsigned long long>(m.bytes),
      static_cast<unsigned long long>(byte_budget_),
      enabled_ ? "" : " (disabled)");
  return line;
}

MarginalStoreStats MarginalStore::stats() const {
  MarginalStoreStats out;
  out.hits = g_hits.load(std::memory_order_relaxed);
  out.misses = g_misses.load(std::memory_order_relaxed);
  out.evictions = g_evictions.load(std::memory_order_relaxed);
  out.skipped = g_skipped.load(std::memory_order_relaxed);
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    out.bytes += shards_[s].bytes;
    out.entries += shards_[s].map.size();
  }
  return out;
}

std::shared_ptr<const ProbTable> MarginalStore::Counts(
    const Dataset& data, std::span<const GenAttr> gattrs, bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;

  // The empty set ("count of nothing" = n) is not worth an entry.
  if (gattrs.empty()) {
    g_skipped.fetch_add(1, std::memory_order_relaxed);
    auto table = std::make_shared<ProbTable>();
    (*table)[0] = data.num_rows();
    return table;
  }

  std::vector<GenAttr> sorted = SortedSet(gattrs);
  std::shared_ptr<const ColumnStore> snapshot = data.store();

  ResolveTimer resolve_timer;

  if (!enabled_) {
    g_skipped.fetch_add(1, std::memory_order_relaxed);
    return CountCanonical(data.schema(), *snapshot, sorted);
  }

  std::string key = KeyOf(snapshot->snapshot_id(), sorted);
  Shard& shard = shards_[std::hash<std::string>{}(key) & (num_shards_ - 1)];

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
      g_hits.fetch_add(1, std::memory_order_relaxed);
      if (was_hit != nullptr) *was_hit = true;
      resolve_timer.hit = true;
      return it->second.table;
    }
  }

  // Miss: count outside the lock. Concurrent misses of the same key both
  // count (deterministically identical tables); the first insert wins.
  g_misses.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const ProbTable> table =
      CountCanonical(data.schema(), *snapshot, sorted);
  size_t bytes = EntryBytes(*table, key.size());
  size_t shard_budget = byte_budget_ / num_shards_;
  if (bytes > shard_budget) {
    g_skipped.fetch_add(1, std::memory_order_relaxed);
    return table;  // bigger than a whole shard slice: serve uncached
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Another thread counted and inserted the same key meanwhile; its table
    // is bit-identical, so adopt it and keep the accounting single-entry.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru);
    return it->second.table;
  }
  while (shard.bytes + bytes > shard_budget && !shard.lru.empty()) {
    auto victim = shard.map.find(shard.lru.back());
    PB_CHECK(victim != shard.map.end());
    shard.bytes -= victim->second.bytes;
    shard.map.erase(victim);
    shard.lru.pop_back();
    g_evictions.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(key);
  shard.map.emplace(std::move(key),
                    Shard::Entry{table, bytes, shard.lru.begin()});
  shard.bytes += bytes;
  return table;
}

ProbTable MarginalStore::CountsOrdered(const Dataset& data,
                                       std::span<const GenAttr> gattrs,
                                       bool* was_hit) {
  if (!enabled_) {
    if (was_hit != nullptr) *was_hit = false;
    g_skipped.fetch_add(1, std::memory_order_relaxed);
    return data.JointCountsGeneralized(gattrs);
  }
  std::shared_ptr<const ProbTable> canonical = Counts(data, gattrs, was_hit);
  if (IsCanonicalOrder(gattrs)) {
    if (canonical.use_count() == 1) {
      // Sole owner — the store declined to keep it (oversize skip), so
      // steal the table instead of deep-copying a second time.
      return std::move(*std::const_pointer_cast<ProbTable>(canonical));
    }
    return *canonical;
  }
  std::vector<int> order;
  order.reserve(gattrs.size());
  for (const GenAttr& g : gattrs) order.push_back(GenVarId(g));
  // Cells are exact integer counts, so the permutation is bit-identical to
  // counting directly in the requested order.
  return canonical->Reorder(order);
}

std::shared_ptr<const ProbTable> MarginalStore::Counts(
    const Dataset& data, std::span<const int> attrs, bool* was_hit) {
  return Counts(data, ToLevelZero(attrs), was_hit);
}

ProbTable MarginalStore::CountsOrdered(const Dataset& data,
                                       std::span<const int> attrs,
                                       bool* was_hit) {
  return CountsOrdered(data, ToLevelZero(attrs), was_hit);
}

}  // namespace privbayes
