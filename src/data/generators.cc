#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace privbayes {

namespace {

// ---------------------------------------------------------------------------
// Ground-truth model used by all generators.
//
// Attributes are ordered; attribute i draws up to `max_parents` parents from
// the previous attributes (biased toward recent ones so the structure is
// chain-like, which matches survey data where related questions cluster).
// Each conditional distribution is Dirichlet(alpha)-sampled and mixed with a
// per-attribute skewed base distribution, giving both strong pairwise
// correlation and non-uniform marginals.
// ---------------------------------------------------------------------------

struct GroundTruthNode {
  std::vector<int> parents;
  // CPT: rows indexed by the parent assignment (mixed-radix over parents in
  // order), each row a distribution over the attribute's domain.
  std::vector<std::vector<double>> cpt;
};

std::vector<double> SampleDirichlet(int k, double alpha, Rng& rng) {
  // Gamma(alpha) via Marsaglia–Tsang with boost for alpha < 1.
  auto gamma = [&rng](double a) {
    double boost = 1.0;
    if (a < 1.0) {
      boost = std::pow(std::max(rng.Uniform(), 1e-12), 1.0 / a);
      a += 1.0;
    }
    double d = a - 1.0 / 3.0;
    double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = rng.Gaussian();
      double v = 1.0 + c * x;
      if (v <= 0) continue;
      v = v * v * v;
      double u = rng.Uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
      if (std::log(std::max(u, 1e-300)) <
          0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return boost * d * v;
      }
    }
  };
  std::vector<double> out(k);
  double total = 0;
  for (int i = 0; i < k; ++i) {
    out[i] = gamma(alpha) + 1e-9;
    total += out[i];
  }
  for (double& v : out) v /= total;
  return out;
}

// Skewed base marginal: geometric-ish decay over a random permutation of the
// domain, so different attributes peak on different values.
std::vector<double> SkewedBase(int card, Rng& rng) {
  std::vector<int> perm(card);
  for (int i = 0; i < card; ++i) perm[i] = i;
  rng.Shuffle(perm);
  std::vector<double> base(card);
  double w = 1.0, total = 0;
  double decay = rng.Uniform(0.45, 0.8);
  for (int i = 0; i < card; ++i) {
    base[perm[i]] = w;
    total += w;
    w *= decay;
  }
  for (double& v : base) v /= total;
  return base;
}

Dataset SampleFromGroundTruth(const Schema& schema, int num_rows,
                              uint64_t seed, double correlation_strength,
                              int max_parents) {
  PB_THROW_IF(num_rows < 0, "negative row count");
  Rng rng(DeriveSeed(seed, 0xDA7A));
  int d = schema.num_attrs();
  std::vector<GroundTruthNode> nodes(d);
  for (int i = 0; i < d; ++i) {
    GroundTruthNode& node = nodes[i];
    int np = std::min(i, max_parents);
    // Pick parents without replacement, biased toward recent attributes.
    std::vector<int> pool(i);
    for (int j = 0; j < i; ++j) pool[j] = j;
    for (int p = 0; p < np; ++p) {
      // Geometric-ish bias: propose from the tail half twice as often.
      size_t idx;
      if (!pool.empty() && rng.Uniform() < 0.67) {
        idx = pool.size() / 2 + rng.UniformInt(pool.size() - pool.size() / 2);
      } else {
        idx = rng.UniformInt(pool.size());
      }
      node.parents.push_back(pool[idx]);
      pool.erase(pool.begin() + static_cast<long>(idx));
    }
    std::sort(node.parents.begin(), node.parents.end());

    size_t rows = 1;
    for (int p : node.parents) {
      rows *= static_cast<size_t>(schema.Cardinality(p));
    }
    int card = schema.Cardinality(i);
    std::vector<double> base = SkewedBase(card, rng);
    node.cpt.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<double> dir = SampleDirichlet(card, 0.35, rng);
      node.cpt[r].resize(card);
      for (int v = 0; v < card; ++v) {
        node.cpt[r][v] = correlation_strength * dir[v] +
                         (1.0 - correlation_strength) * base[v];
      }
    }
  }

  std::vector<std::vector<Value>> columns(
      static_cast<size_t>(d),
      std::vector<Value>(static_cast<size_t>(num_rows)));
  std::vector<Value> row(d);
  for (int r = 0; r < num_rows; ++r) {
    for (int i = 0; i < d; ++i) {
      const GroundTruthNode& node = nodes[i];
      size_t cpt_row = 0;
      for (int p : node.parents) {
        cpt_row = cpt_row * static_cast<size_t>(schema.Cardinality(p)) + row[p];
      }
      row[i] = static_cast<Value>(rng.Discrete(node.cpt[cpt_row]));
      columns[i][r] = row[i];
    }
  }
  return Dataset::FromColumns(schema, std::move(columns));
}

Schema NltcsSchema() {
  // 16 daily-living disability indicators; the four §6.6 targets first.
  const char* names[16] = {"outside",  "money",   "bathing",  "traveling",
                           "dressing", "toileting", "eating",  "grooming",
                           "walking",  "bed",     "heavy",    "light",
                           "laundry",  "cooking", "shopping", "medicine"};
  std::vector<Attribute> attrs;
  for (const char* n : names) attrs.push_back(Attribute::Binary(n));
  return Schema(std::move(attrs));
}

Schema AcsSchema() {
  const char* names[23] = {"dwelling",  "mortgage", "multigen",  "school",
                           "sex",       "veteran",  "disability", "employed",
                           "married",   "citizen",  "insurance", "internet",
                           "vehicle",   "foodstamp", "grandkids", "military",
                           "widowed",   "divorced", "english",   "poverty",
                           "broadband", "laptop",   "smartphone"};
  std::vector<Attribute> attrs;
  for (const char* n : names) attrs.push_back(Attribute::Binary(n));
  return Schema(std::move(attrs));
}

// Helper for two-level categorical taxonomies: leaves -> groups.
TaxonomyTree TwoLevel(const std::vector<Value>& leaf_to_group) {
  return TaxonomyTree::FromChain(static_cast<int>(leaf_to_group.size()),
                                 {leaf_to_group});
}

Schema AdultSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Binary("sex"));          // target (a)
  attrs.push_back(Attribute::Binary("salary"));       // target (b): > 50K
  // education: 16 levels ordered dropout(0-7), HS/college(8-11), degree(12-15);
  // taxonomy {dropout, secondary, college, advanced} -> paper target (c) is
  // "holds a post-secondary degree" i.e. value >= 12.
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "education",
      TwoLevel({0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 3})));
  // marital: 7 values, value 4 = never-married (target (d));
  // groups {married, was-married, single}.
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "marital", TwoLevel({0, 0, 0, 1, 2, 1, 1})));
  attrs.push_back(Attribute::Continuous("age", 0, 80, 16));
  // workclass: 8 values as in Fig. 3: {self-emp ×2, gov ×3, private,
  // without-pay, never-worked} -> 4 groups.
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "workclass", TwoLevel({0, 0, 1, 1, 1, 2, 3, 3})));
  attrs.push_back(Attribute::Continuous("fnlwgt", 0, 1.5e6, 16));
  attrs.push_back(Attribute::Continuous("education_num", 0, 16, 16));
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "occupation",
      TwoLevel({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3})));  // 14 -> 4
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "relationship", TwoLevel({0, 0, 1, 1, 2, 2})));  // 6 -> 3
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "race", TwoLevel({0, 1, 1, 1, 1})));  // 5 -> 2
  attrs.push_back(Attribute::Continuous("capital_gain", 0, 1e5, 16));
  attrs.push_back(Attribute::Continuous("capital_loss", 0, 5e3, 16));
  attrs.push_back(Attribute::Continuous("hours", 0, 100, 16));
  // country: 42 countries -> 7 regions -> 4 continents (CIA Factbook style).
  std::vector<Value> country_to_region(42);
  for (int c = 0; c < 42; ++c) country_to_region[c] = static_cast<Value>(c / 6);
  std::vector<Value> region_to_continent = {0, 0, 1, 1, 2, 2, 3};
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "country",
      TaxonomyTree::FromChain(42, {country_to_region, region_to_continent})));
  return Schema(std::move(attrs));
}

Schema Br2000Schema() {
  std::vector<Attribute> attrs;
  // religion: 8 values, value 0 = Catholic (target (a)); groups
  // {christian, other, none}.
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "religion", TwoLevel({0, 0, 0, 1, 1, 1, 2, 2})));
  attrs.push_back(Attribute::Binary("car"));  // target (b)
  // children: count 0..7 (target (c): >= 1), binary-tree taxonomy.
  attrs.push_back(Attribute::Continuous("children", 0, 8, 8));
  // age: 16 five-year bins (target (d): older than 20 -> bin >= 4).
  attrs.push_back(Attribute::Continuous("age", 0, 80, 16));
  attrs.push_back(Attribute::Binary("gender"));
  attrs.push_back(Attribute::Continuous("income", 0, 1e5, 16));
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "education", TwoLevel({0, 0, 0, 1, 1, 2, 2, 2})));  // 8 -> 3
  attrs.push_back(Attribute::Categorical("marital", 4));
  attrs.push_back(Attribute::Categorical("race", 4));
  // region: 16 municipalities -> 5 macro-regions.
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "region", TwoLevel({0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4})));
  attrs.push_back(Attribute::CategoricalWithTaxonomy(
      "occupation",
      TwoLevel({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})));  // 16 -> 4
  attrs.push_back(Attribute::Categorical("dwelling", 4));
  attrs.push_back(Attribute::Binary("water"));
  attrs.push_back(Attribute::Binary("tv"));
  return Schema(std::move(attrs));
}

}  // namespace

Dataset MakeNltcs(uint64_t seed, int num_rows) {
  return SampleFromGroundTruth(NltcsSchema(), num_rows,
                               DeriveSeed(seed, 1), /*correlation=*/0.75,
                               /*max_parents=*/3);
}

Dataset MakeAcs(uint64_t seed, int num_rows) {
  return SampleFromGroundTruth(AcsSchema(), num_rows, DeriveSeed(seed, 2),
                               /*correlation=*/0.7, /*max_parents=*/3);
}

Dataset MakeAdult(uint64_t seed, int num_rows) {
  return SampleFromGroundTruth(AdultSchema(), num_rows, DeriveSeed(seed, 3),
                               /*correlation=*/0.65, /*max_parents=*/2);
}

Dataset MakeBr2000(uint64_t seed, int num_rows) {
  return SampleFromGroundTruth(Br2000Schema(), num_rows, DeriveSeed(seed, 4),
                               /*correlation=*/0.65, /*max_parents=*/2);
}

Dataset MakeDatasetByName(const std::string& name, uint64_t seed,
                          int num_rows) {
  if (name == "NLTCS") return MakeNltcs(seed, num_rows ? num_rows : 21574);
  if (name == "ACS") return MakeAcs(seed, num_rows ? num_rows : 47461);
  if (name == "Adult") return MakeAdult(seed, num_rows ? num_rows : 45222);
  if (name == "BR2000") return MakeBr2000(seed, num_rows ? num_rows : 38000);
  PB_THROW_IF(true, "unknown dataset name '" << name << "'");
  __builtin_unreachable();
}

Dataset MakeToyDataset(Schema schema, int num_rows, uint64_t seed,
                       double correlation_strength) {
  return SampleFromGroundTruth(schema, num_rows, seed, correlation_strength,
                               /*max_parents=*/2);
}

}  // namespace privbayes
