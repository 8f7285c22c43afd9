// Synthetic stand-ins for the paper's evaluation datasets (§6.1, Table 5).
//
// The original NLTCS, ACS (IPUMS), Adult (UCI) and BR2000 (IPUMS) extracts
// are not redistributable with this repository, so each is replaced by a
// synthetic population with the SAME cardinality, dimensionality, per-
// attribute domain sizes and taxonomy trees as Table 5, sampled from a
// fixed-seed ground-truth Bayesian network of degree <= 3 with Dirichlet
// conditional distributions. This preserves the property every experiment in
// §6 actually exercises — genuine low-degree correlation structure over the
// right domain geometry — while the concrete bits differ from the originals
// (README, "Reproducing the paper").

#ifndef PRIVBAYES_DATA_GENERATORS_H_
#define PRIVBAYES_DATA_GENERATORS_H_

#include <string>

#include "data/dataset.h"

namespace privbayes {

/// Paper Table 5: NLTCS — 21,574 rows × 16 binary attributes (domain 2^16).
/// Attributes are the survey's disability indicators; the four SVM targets
/// of §6.6 ("outside", "money", "bathing", "traveling") are columns 0–3.
Dataset MakeNltcs(uint64_t seed, int num_rows = 21574);

/// Paper Table 5: ACS — 47,461 rows × 23 binary attributes (domain 2^23).
/// SVM targets "dwelling", "mortgage", "multigen", "school" are columns 0–3.
Dataset MakeAcs(uint64_t seed, int num_rows = 47461);

/// Paper Table 5: Adult — 45,222 rows × 15 mixed attributes (domain ≈ 2^50):
/// continuous attributes in 16 equi-width bins with binary-tree taxonomies,
/// categorical attributes with hand-built taxonomies (workclass, education,
/// marital, occupation, relationship, race, country).
Dataset MakeAdult(uint64_t seed, int num_rows = 45222);

/// Paper Table 5: BR2000 — 38,000 rows × 14 mixed attributes (domain ≈ 2^35).
Dataset MakeBr2000(uint64_t seed, int num_rows = 38000);

/// Lookup by the paper's dataset name ("NLTCS", "ACS", "Adult", "BR2000");
/// throws std::invalid_argument for unknown names. num_rows = 0 selects the
/// paper's cardinality.
Dataset MakeDatasetByName(const std::string& name, uint64_t seed,
                          int num_rows = 0);

/// A small correlated dataset for tests: `num_attrs` attributes with the
/// given cardinalities sampled from a random chain-structured network.
Dataset MakeToyDataset(Schema schema, int num_rows, uint64_t seed,
                       double correlation_strength = 0.5);

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_GENERATORS_H_
