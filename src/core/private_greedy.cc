#include "core/private_greedy.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "bn/greedy_bayes.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/maximal_parent_sets.h"
#include "core/theta_usefulness.h"
#include "data/marginal_store.h"
#include "dp/mechanisms.h"

namespace privbayes {

namespace {

// Reusable per-thread (parents..., child) list: candidate scoring rebuilds
// this for every joint, so it must not allocate per candidate.
std::vector<GenAttr>& GattrsScratch(const APPair& pair) {
  thread_local std::vector<GenAttr> gattrs;
  gattrs.clear();
  gattrs.insert(gattrs.end(), pair.parents.begin(), pair.parents.end());
  gattrs.push_back(GenAttr{pair.attr, 0});
  return gattrs;
}

// Scores every candidate from the process-wide MarginalStore: each joint is
// resolved against the snapshot-keyed cache and counted only on miss, so a
// candidate that survives an iteration (cf. AIM-style marginal reuse) — or
// that appeared in ANY earlier learn on the same snapshot (ε sweeps,
// ablations, serving refits) — costs one hash lookup instead of a counting
// pass. Tables are cached in canonical sorted order and scored through
// ComputeScoreForChild, so one entry serves every (parents, child)
// arrangement of the same attribute set. Deterministic: distinct candidates
// in one round never share a key (their children are all unchosen, but a
// shared set would put one child in the other's parents — i.e. chosen), so
// each joint is counted exactly once regardless of sharding, and counted
// values never depend on hit/miss history.
std::vector<double> ScoreAllCandidates(const Dataset& data,
                                       const std::vector<APPair>& candidates,
                                       ScoreKind score, size_t f_max_states,
                                       JointCacheStats* stats) {
  MarginalStore& store = MarginalStore::Instance();
  const int64_t n = data.num_rows();
  std::vector<double> scores(candidates.size());
  std::atomic<uint64_t> hits{0}, misses{0};
  auto score_range = [&](size_t begin, size_t end) {
    uint64_t local_hits = 0, local_misses = 0;
    for (size_t c = begin; c < end; ++c) {
      const APPair& pair = candidates[c];
      bool hit = false;
      std::shared_ptr<const ProbTable> counts =
          store.Counts(data, GattrsScratch(pair), &hit);
      (hit ? local_hits : local_misses) += 1;
      scores[c] = ComputeScoreForChild(score, *counts, GenVarId(pair.attr), n,
                                       f_max_states);
    }
    hits.fetch_add(local_hits, std::memory_order_relaxed);
    misses.fetch_add(local_misses, std::memory_order_relaxed);
  };
  // Candidate costs vary (F's frontier size depends on the joint), so pool
  // threads claim candidates one at a time rather than in equal blocks.
  // Fewer than 16 candidates run inline; so does a call from inside another
  // parallel region, and counting nested under a candidate runs inline too.
  if (candidates.size() < 16) {
    score_range(0, candidates.size());
  } else {
    ThreadPool::Global().Run(candidates.size(), /*chunk=*/1, score_range);
  }
  if (stats != nullptr) {
    stats->hits += hits.load();
    stats->misses += misses.load();
  }
  return scores;
}

// Shared selection loop: enumerate-candidates callback differs between the
// binary and general algorithms.
template <typename EnumerateFn>
BayesNet GreedyLoop(const Dataset& data, const PrivateGreedyOptions& options,
                    Rng& rng, BudgetAccountant* acct, bool binary_side,
                    EnumerateFn&& enumerate) {
  const int d = data.num_attrs();
  BayesNet net;
  std::vector<int> chosen, remaining;
  int first = options.first_attr >= 0
                  ? options.first_attr
                  : static_cast<int>(rng.UniformInt(d));
  PB_THROW_IF(first >= d, "first_attr out of range");
  net.Add(APPair{first, {}});
  chosen.push_back(first);
  for (int a = 0; a < d; ++a) {
    if (a != first) remaining.push_back(a);
  }
  if (remaining.empty()) return net;

  double per_iter_eps =
      options.epsilon1 > 0 ? options.epsilon1 / (d - 1) : 0.0;
  double sensitivity =
      ScoreSensitivity(options.score, data.num_rows(), binary_side);
  ExponentialMechanism em(sensitivity, per_iter_eps);

  while (!remaining.empty()) {
    std::vector<APPair> candidates = enumerate(chosen, remaining);
    PB_CHECK_MSG(!candidates.empty(), "empty candidate set");
    std::vector<double> scores =
        ScoreAllCandidates(data, candidates, options.score,
                           options.f_max_states, options.cache_stats);
    size_t pick = em.Select(scores, rng, acct);
    const APPair& winner = candidates[pick];
    chosen.push_back(winner.attr);
    remaining.erase(
        std::find(remaining.begin(), remaining.end(), winner.attr));
    net.Add(winner);
  }
  return net;
}

}  // namespace

LearnedNetwork LearnNetworkBinary(const Dataset& data,
                                  const PrivateGreedyOptions& options,
                                  Rng& rng, BudgetAccountant* acct) {
  PB_THROW_IF(!data.schema().AllBinary(),
              "binary algorithm requires an all-binary schema");
  const int d = data.num_attrs();
  PB_THROW_IF(d < 1, "empty schema");
  int k = options.fixed_k >= 0
              ? options.fixed_k
              : ChooseDegreeK(data.num_rows(), d, options.epsilon2_plan,
                              options.theta);
  PB_THROW_IF(k > d - 1, "degree k exceeds d-1");

  if (k == 0) {
    // Only one possible structure (all attributes independent): build it
    // without touching the data or the budget (§6.4 footnote 6).
    BayesNet net;
    std::vector<int> order(d);
    for (int a = 0; a < d; ++a) order[a] = a;
    rng.Shuffle(order);
    if (options.first_attr >= 0) {
      // Keep the requested root first for reproducible tests.
      auto it = std::find(order.begin(), order.end(), options.first_attr);
      std::iter_swap(order.begin(), it);
    }
    for (int a : order) net.Add(APPair{a, {}});
    return LearnedNetwork{std::move(net), 0};
  }

  BayesNet net = GreedyLoop(
      data, options, rng, acct, /*binary_side=*/true,
      [&](const std::vector<int>& chosen, const std::vector<int>& remaining) {
        return EnumerateOrSampleCandidatesFixedK(chosen, remaining, k,
                                                 options.candidate_cap, rng);
      });
  return LearnedNetwork{std::move(net), k};
}

LearnedNetwork LearnNetworkGeneral(const Dataset& data,
                                   const PrivateGreedyOptions& options,
                                   Rng& rng, BudgetAccountant* acct) {
  PB_THROW_IF(options.score == ScoreKind::kF,
              "score F is not computable on general domains (Thm 5.1)");
  const int d = data.num_attrs();
  PB_THROW_IF(d < 1, "empty schema");
  const Schema& schema = data.schema();
  bool binary_side = schema.AllBinary();

  // With no cap the caller asked for exact enumeration: disable the node
  // budget so the fallback sampler (which needs a cap) is never required.
  const size_t node_budget =
      options.candidate_cap == 0 ? 0 : options.mps_node_budget;
  BayesNet net = GreedyLoop(
      data, options, rng, acct, binary_side,
      // One enumerator per learn: every round extends the previous round's
      // chosen set, so its memo serves the whole learn.
      [&, mps = MaximalParentSetEnumerator(schema, /*use_taxonomies=*/true,
                                           node_budget)](
          const std::vector<int>& chosen,
          const std::vector<int>& remaining) mutable {
        std::vector<APPair> candidates;
        // Spread the per-iteration cap across the remaining attributes so no
        // attribute is starved of parent-set candidates.
        size_t per_attr_cap =
            options.candidate_cap == 0
                ? 0
                : std::max<size_t>(16,
                                   options.candidate_cap / remaining.size());
        for (int x : remaining) {
          double tau =
              ParentDomainCap(data.num_rows(), d, options.epsilon2_plan,
                              options.theta, schema.Cardinality(x));
          std::vector<std::vector<GenAttr>> tops =
              mps.Bounded(chosen, tau, per_attr_cap, rng);
          if (tops.empty()) {
            candidates.push_back(APPair{x, {}});
          } else {
            for (std::vector<GenAttr>& parents : tops) {
              candidates.push_back(APPair{x, std::move(parents)});
            }
          }
        }
        CapCandidates(candidates, options.candidate_cap, rng);
        return candidates;
      });
  return LearnedNetwork{std::move(net), -1};
}

}  // namespace privbayes
