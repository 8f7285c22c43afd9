// Ancestral sampling from a Bayesian network (paper §3, "Generation of
// synthetic data").
//
// Because every parent set Π_i only references attributes earlier in the
// network order, sampling attributes in order i = 1..d from Pr*[X_i | Π_i]
// never needs the full-dimensional distribution — the key to PrivBayes's
// output scalability. Generalized parents are handled by generalizing the
// already-sampled leaf value through the attribute's taxonomy before the
// conditional-table lookup.
//
// The engine is column-at-a-time: within each fixed-size shard of rows,
// every network node is processed in ancestral order as three data-parallel
// passes over the whole shard — a random block generated up front (4
// interleaved xoshiro256++ lanes, FastRng4), parent slice indices resolved
// for the chunk (one shared leaf-map + stride walk, also used by
// LogLikelihood), then the conditional draw itself via the per-ISA kernels
// of bn/sample_kernels.h (AVX2/AVX-512 gathered alias probes; child
// cardinality ≤ 2 collapses to a threshold compare on the uniform block).
// Writes land directly in the columnar buffers Dataset::FromColumns adopts,
// so serving sinks consume them with zero transpose. Large batches are
// row-sharded across the persistent thread pool with per-shard
// deterministic seeds.
//
// Determinism contract: the sampled table is a pure function of (model,
// base seed) — bit-identical across scalar/AVX2/AVX-512 dispatch, thread
// counts, and chunk boundaries. The exact byte stream is versioned by
// kSampleStreamVersion below; see its comment for the layout.

#ifndef PRIVBAYES_BN_SAMPLING_H_
#define PRIVBAYES_BN_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "bn/bayes_net.h"
#include "common/random.h"
#include "data/dataset.h"
#include "prob/prob_table.h"

namespace privbayes {

/// Conditional distributions attached to a network: conditionals[i] is
/// Pr*[X_i | Π_i] stored as a ProbTable over (parents in pair order …, X_i
/// last), with every parent-slice normalized over X_i. Parent variables use
/// GenVarId(parent) ids, the child uses GenVarId(attr, level 0).
struct ConditionalSet {
  std::vector<ProbTable> conditionals;
};

/// A compiled model: per-node thresholds / alias tables + resolved lookups
/// for repeated sampling and likelihood evaluation. Holds pointers into
/// `schema`, `net` and `conditionals`; all three must outlive the sampler.
class NetworkSampler {
 public:
  /// Rows per deterministic shard of a batch. Per-shard streams are seeded
  /// DeriveSeed(base_seed, global_shard_index), so a base seed defines an
  /// unbounded deterministic row stream that any shard-aligned chunk can be
  /// cut from — the contract the serving layer's streaming relies on.
  static constexpr int kShardRows = 8192;

  /// Version of the sampled byte stream — the analogue of
  /// kModelFormatVersion for served bytes. Bump it whenever the mapping
  /// (model, base seed) → rows changes, so replays against archived seeds
  /// fail loudly instead of silently returning different tables.
  ///
  /// Version 2 (the column-at-a-time engine):
  ///   · shard s of the stream is seeded DeriveSeed(base_seed, s);
  ///   · node i (network order) of a shard draws its uniform block from
  ///     FastRng4(DeriveSeed(shard_seed, i)) — 4 interleaved xoshiro256++
  ///     lanes, row r consuming draw r of the block;
  ///   · a node with child cardinality ≤ 2 maps u to
  ///     (u < P[child=0 | slice]) ? 0 : 1; larger cardinalities run the
  ///     Walker/Vose probe of bn/sample_kernels.h on u · card.
  /// (Version 1 was the row-at-a-time engine of PRs 1–6: one FastRng per
  /// shard consumed in row-major node order, alias probes everywhere.)
  static constexpr int kSampleStreamVersion = 2;

  /// Validates the conditionals against the network (same checks the seed's
  /// SampleFromNetwork ran) and precomputes thresholds + alias tables;
  /// throws std::invalid_argument on any mismatch.
  NetworkSampler(const Schema& schema, const BayesNet& net,
                 const ConditionalSet& conditionals);

  /// Samples `num_rows` rows ancestrally into a fresh Dataset.
  Dataset Sample(int64_t num_rows, Rng& rng) const;

  /// Samples `num_rows` rows starting at shard `first_shard` of the
  /// deterministic stream keyed by `base_seed`: row i of the result is row
  /// first_shard·kShardRows + i of the stream, bit-identical at any thread
  /// count. Sample(n, rng) ≡ SampleChunk(rng.engine()(), 0, n). All
  /// shard/row arithmetic is 64-bit, so chunks cut deep into a 100M+-row
  /// stream (first_shard · kShardRows far past 2^31) are safe.
  Dataset SampleChunk(uint64_t base_seed, int64_t first_shard,
                      int64_t num_rows) const;

  /// log2-likelihood of `data` under the model, probability-zero cells
  /// floored at `floor_prob`.
  double LogLikelihood(const Dataset& data, double floor_prob = 1e-12) const;

 private:
  // One parent of one network node, resolved for O(1) lookup: the sampled
  // leaf value of `attr` maps through `leaf_map` (null at level 0) and
  // advances the slice index by `stride` slices.
  struct ParentRef {
    int attr = 0;
    uint32_t stride = 0;
    const Value* leaf_map = nullptr;
  };
  struct Node {
    int attr = 0;
    int child_card = 0;
    std::vector<ParentRef> parents;
    const ProbTable* table = nullptr;  // for LogLikelihood
    size_t alias_offset = 0;  // flat index of slice 0, bucket 0 (card > 2)
    std::vector<double> thresholds;  // card ≤ 2: P[child=0 | slice] per slice
  };

  /// Resolves the parent-configuration slice index of rows [row_begin,
  /// row_end) into `slices` — the leaf-map + stride walk shared by the
  /// columnar sampler and LogLikelihood. Requires node.parents non-empty.
  static void ResolveSlices(const Node& node, const Value* const* cols,
                            int64_t row_begin, int64_t row_end,
                            uint32_t* slices);

  /// Samples one shard column-at-a-time into the chunk's column buffers.
  void SampleShard(const std::vector<Value*>& cols, int64_t row_begin,
                   int64_t row_end, uint64_t shard_seed) const;

  const Schema* schema_;
  std::vector<Node> nodes_;
  // Alias tables of every card > 2 conditional slice, flattened into two
  // contiguous arrays (bucket b of slice s of node i lives at
  // nodes_[i].alias_offset + s·child_card + b): one allocation to walk
  // during sampling instead of one AliasTable object per parent
  // configuration. alias_value_ carries one trailing sentinel so the SIMD
  // kernels' 32-bit gathers of 16-bit entries never read past the buffer.
  std::vector<double> alias_prob_;
  std::vector<Value> alias_value_;
};

/// Samples `num_rows` rows ancestrally. Throws if the conditional tables do
/// not match the network's pairs. One-shot wrapper over NetworkSampler;
/// build the sampler directly to amortize table compilation across batches.
Dataset SampleFromNetwork(const Schema& schema, const BayesNet& net,
                          const ConditionalSet& conditionals, int64_t num_rows,
                          Rng& rng);

/// log2-likelihood of `data` under the network + conditionals, with
/// probability-zero cells floored at `floor_prob`. Used by tests to verify
/// that fitted models actually explain the data they were fitted on.
double LogLikelihood(const Dataset& data, const BayesNet& net,
                     const ConditionalSet& conditionals,
                     double floor_prob = 1e-12);

}  // namespace privbayes

#endif  // PRIVBAYES_BN_SAMPLING_H_
