#include "core/maximal_parent_sets.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>

#include "common/check.h"

namespace privbayes {

namespace {

// Canonical hash key for a generalized set (sorted by attribute).
std::string KeyOf(const std::vector<GenAttr>& set) {
  std::string key;
  key.reserve(set.size() * 4);
  for (const GenAttr& g : set) {
    key.push_back(static_cast<char>(g.attr & 0xff));
    key.push_back(static_cast<char>((g.attr >> 8) & 0xff));
    key.push_back(static_cast<char>(g.level & 0xff));
    key.push_back(';');
  }
  return key;
}

void Canonicalize(std::vector<GenAttr>* set) {
  std::sort(set->begin(), set->end(),
            [](const GenAttr& a, const GenAttr& b) { return a.attr < b.attr; });
}

uint64_t TauBits(double tau) {
  uint64_t bits;
  std::memcpy(&bits, &tau, sizeof(bits));
  return bits;
}

// FNV-1a over one row's code bytes.
uint64_t HashCodes(const uint8_t* codes, size_t width) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < width; ++i) {
    h ^= codes[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint32_t kEmptySlot = UINT32_MAX;

// Randomized maximal-set sampler: random greedy completion followed by an
// improvement loop (lower levels / add attributes) until a maximality
// fixpoint. Depends only on schema cardinalities and tau.
std::vector<GenAttr> SampleMaximalSet(const Schema& schema,
                                      std::vector<int> v, double tau,
                                      bool use_taxonomies, Rng& rng) {
  rng.Shuffle(v);
  std::vector<GenAttr> set;
  double dom = 1.0;
  auto levels_of = [&](int attr) {
    return use_taxonomies ? schema.attr(attr).taxonomy.num_levels() : 1;
  };
  // Greedy completion: add each attribute at its most general level that
  // fits (leaving room for others); refine afterwards.
  for (int attr : v) {
    int lv = levels_of(attr);
    int pick = -1;
    for (int level = lv - 1; level >= 0; --level) {
      if (dom * schema.CardinalityAt(attr, level) <= tau) {
        pick = level;  // keep scanning: prefer the LEAST generalized that fits
      }
    }
    if (pick >= 0) {
      set.push_back(GenAttr{attr, pick});
      dom *= schema.CardinalityAt(attr, pick);
    }
  }
  // Improvement loop: ensure maximality (no addable attribute at any level,
  // no lowerable level).
  bool changed = true;
  while (changed) {
    changed = false;
    for (GenAttr& g : set) {
      while (g.level > 0) {
        double without = dom / schema.CardinalityAt(g.attr, g.level);
        double with_lower = without * schema.CardinalityAt(g.attr, g.level - 1);
        if (with_lower <= tau) {
          dom = with_lower;
          --g.level;
          changed = true;
        } else {
          break;
        }
      }
    }
    for (int attr : v) {
      bool present = false;
      for (const GenAttr& g : set) present |= (g.attr == attr);
      if (present) continue;
      int lv = levels_of(attr);
      int pick = -1;
      for (int level = 0; level < lv; ++level) {
        if (dom * schema.CardinalityAt(attr, level) <= tau) {
          pick = level;  // most general fitting is enough for maximality;
        }                // keep the most generalized so others still fit
      }
      if (pick >= 0) {
        set.push_back(GenAttr{attr, pick});
        dom *= schema.CardinalityAt(attr, pick);
        changed = true;
      }
    }
  }
  Canonicalize(&set);
  return set;
}

}  // namespace

double GenDomainSize(const Schema& schema, const std::vector<GenAttr>& set) {
  double dom = 1.0;
  for (const GenAttr& g : set) dom *= schema.CardinalityAt(g.attr, g.level);
  return dom;
}

MaximalParentSetEnumerator::MaximalParentSetEnumerator(const Schema& schema,
                                                       bool use_taxonomies,
                                                       size_t node_budget)
    : schema_(schema),
      use_taxonomies_(use_taxonomies),
      node_budget_(node_budget) {
  unit_.count = 1;
}

int MaximalParentSetEnumerator::LevelsOf(int attr) const {
  return use_taxonomies_ ? schema_.attr(attr).taxonomy.num_levels() : 1;
}

void MaximalParentSetEnumerator::Reset(const std::vector<int>& v) {
  size_t same = 0;
  while (same < v.size() && same < v_.size() && v[same] == v_[same]) ++same;
  for (size_t m = same + 1; m < memo_.size(); ++m) memo_[m].clear();
  memo_.resize(v.size() + 1);
  v_ = v;
}

// Calls Algorithm 6's recursion over v[0..m) under tau makes, itself
// included, saturated at node_budget + 1 (the caller only asks whether the
// tree exceeds the budget).
size_t MaximalParentSetEnumerator::TreeSize(int m, double tau) {
  if (tau < 1 || m == 0) return 1;
  Entry& entry = memo_[m][TauBits(tau)];
  if (entry.nodes != 0) return entry.nodes;
  const size_t limit =
      node_budget_ == SIZE_MAX ? SIZE_MAX : node_budget_ + 1;
  auto add = [&](size_t total, size_t more) {
    return more >= limit - total ? limit : total + more;
  };
  const int x = v_[m - 1];
  size_t total = 1;
  for (int level = 0; level < LevelsOf(x) && total < limit; ++level) {
    total = add(total, TreeSize(m - 1, tau / schema_.CardinalityAt(x, level)));
  }
  if (total < limit) total = add(total, TreeSize(m - 1, tau));
  entry.nodes = total;
  return total;
}

// Algorithm 6 over v[0..m): least-generalized levels of x = v[m-1] first,
// each paired with the child family under tau / |dom(x at level)|, keeping
// only the first level a child set pairs with; then the child sets under
// tau that paired with no level (no level of x fits alongside them).
const MaximalParentSetEnumerator::Family& MaximalParentSetEnumerator::Build(
    int m, double tau) {
  if (tau < 1) return empty_;
  if (m == 0) return unit_;
  Entry& entry = memo_[m][TauBits(tau)];
  if (entry.built) return entry.family;
  // Children live in memo_[m - 1] and below, so `entry` stays valid.
  const int x = v_[m - 1];
  const int levels = LevelsOf(x);
  std::vector<const Family*> paired(levels);
  size_t paired_rows = 0;
  for (int level = 0; level < levels; ++level) {
    paired[level] = &Build(m - 1, tau / schema_.CardinalityAt(x, level));
    paired_rows += paired[level]->count;
  }
  const Family& absent = Build(m - 1, tau);

  const size_t width = static_cast<size_t>(m - 1);
  Family& out = entry.family;
  out.codes.reserve((paired_rows + absent.count) * m);
  size_t capacity = 16;
  while (capacity < 2 * paired_rows) capacity *= 2;
  slots_.assign(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  // Probes for child row z among the rows paired so far; returns its slot,
  // or the empty slot where it belongs.
  auto find = [&](const uint8_t* z) -> uint32_t* {
    size_t i = HashCodes(z, width) & mask;
    while (slots_[i] != kEmptySlot &&
           !std::equal(z, z + width,
                       out.codes.data() + size_t{slots_[i]} * m)) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  };
  auto append = [&](const uint8_t* z, uint8_t code) {
    out.codes.insert(out.codes.end(), z, z + width);
    out.codes.push_back(code);
    ++out.count;
  };
  for (int level = 0; level < levels; ++level) {
    const Family& child = *paired[level];
    for (size_t r = 0; r < child.count; ++r) {
      const uint8_t* z = child.codes.data() + r * width;
      uint32_t* slot = find(z);
      if (*slot != kEmptySlot) continue;
      *slot = static_cast<uint32_t>(out.count);
      append(z, static_cast<uint8_t>(level + 1));
    }
  }
  for (size_t r = 0; r < absent.count; ++r) {
    const uint8_t* z = absent.codes.data() + r * width;
    if (*find(z) != kEmptySlot) continue;
    append(z, 0);
  }
  entry.built = true;
  return out;
}

std::vector<GenAttr> MaximalParentSetEnumerator::Decode(const Family& family,
                                                        int m,
                                                        size_t row) const {
  const uint8_t* codes = family.codes.data() + row * m;
  std::vector<GenAttr> set;
  for (int i = 0; i < m; ++i) {
    if (codes[i] != 0) set.push_back(GenAttr{v_[i], codes[i] - 1});
  }
  Canonicalize(&set);
  return set;
}

std::vector<std::vector<GenAttr>> MaximalParentSetEnumerator::Exact(
    const std::vector<int>& v, double tau) {
  Reset(v);
  const int m = static_cast<int>(v.size());
  const Family& family = Build(m, tau);
  std::vector<std::vector<GenAttr>> out;
  out.reserve(family.count);
  for (size_t r = 0; r < family.count; ++r) out.push_back(Decode(family, m, r));
  return out;
}

std::vector<std::vector<GenAttr>> MaximalParentSetEnumerator::Bounded(
    const std::vector<int>& v, double tau, size_t max_results, Rng& rng) {
  Reset(v);
  const int m = static_cast<int>(v.size());
  if (node_budget_ == 0 || TreeSize(m, tau) <= node_budget_) {
    const Family& family = Build(m, tau);
    std::vector<uint32_t> rows(family.count);
    for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
    if (max_results != 0 && rows.size() > max_results) {
      // Uniform subsample (data-independent): a partial Fisher–Yates over
      // row indices.
      for (size_t i = 0; i < max_results; ++i) {
        std::swap(rows[i], rows[i + rng.UniformInt(rows.size() - i)]);
      }
      rows.resize(max_results);
    }
    std::vector<std::vector<GenAttr>> out;
    out.reserve(rows.size());
    for (uint32_t r : rows) out.push_back(Decode(family, m, r));
    return out;
  }
  PB_CHECK_MSG(max_results > 0,
               "exact enumeration exceeded node budget and no cap was given");
  std::vector<std::vector<GenAttr>> out;
  std::unordered_set<std::string> seen;
  size_t trials = max_results * 8 + 32;
  for (size_t t = 0; t < trials && out.size() < max_results; ++t) {
    std::vector<GenAttr> set =
        SampleMaximalSet(schema_, v, tau, use_taxonomies_, rng);
    std::string key = KeyOf(set);
    if (seen.insert(std::move(key)).second) out.push_back(std::move(set));
  }
  return out;
}

std::vector<std::vector<int>> MaximalParentSetsExact(const Schema& schema,
                                                     std::vector<int> v,
                                                     double tau) {
  MaximalParentSetEnumerator e(schema, /*use_taxonomies=*/false,
                               /*node_budget=*/0);
  std::vector<std::vector<int>> out;
  for (const std::vector<GenAttr>& set : e.Exact(v, tau)) {
    std::vector<int> flat;
    flat.reserve(set.size());
    for (const GenAttr& g : set) flat.push_back(g.attr);
    out.push_back(std::move(flat));
  }
  return out;
}

std::vector<std::vector<GenAttr>> MaximalParentSetsGenExact(
    const Schema& schema, std::vector<int> v, double tau) {
  return MaximalParentSetEnumerator(schema, /*use_taxonomies=*/true,
                                    /*node_budget=*/0)
      .Exact(v, tau);
}

std::vector<std::vector<GenAttr>> BoundedMaximalParentSets(
    const Schema& schema, const std::vector<int>& v, double tau,
    bool use_taxonomies, size_t max_results, size_t node_budget, Rng& rng) {
  return MaximalParentSetEnumerator(schema, use_taxonomies, node_budget)
      .Bounded(v, tau, max_results, rng);
}

}  // namespace privbayes
