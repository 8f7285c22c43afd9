// Regenerates paper Table 4: properties of the three score functions —
// range, sensitivity (closed form + empirical max over random neighbour
// pairs), and measured evaluation time, on an NLTCS-sized pair workload.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util/report.h"
#include "common/env.h"
#include "core/score_functions.h"
#include "data/generators.h"

namespace pb = privbayes;

namespace {

double EmpiricalSensitivity(pb::ScoreKind score, int trials, uint64_t seed) {
  // Max |score(D1) − score(D2)| over random neighbour pairs (n small so the
  // bound is approached).
  const int n = 30;
  pb::Rng rng(seed);
  double worst = 0;
  for (int t = 0; t < trials; ++t) {
    pb::Schema s({pb::Attribute::Categorical("p", 3),
                  pb::Attribute::Binary("x")});
    std::vector<std::vector<pb::Value>> cols(2, std::vector<pb::Value>(n));
    for (int r = 0; r < n; ++r) {
      cols[0][r] = static_cast<pb::Value>(rng.UniformInt(3));
      cols[1][r] = static_cast<pb::Value>(rng.UniformInt(2));
    }
    pb::Dataset d1 = pb::Dataset::FromColumns(s, cols);
    int victim = static_cast<int>(rng.UniformInt(n));
    cols[0][victim] = static_cast<pb::Value>(rng.UniformInt(3));
    cols[1][victim] = static_cast<pb::Value>(rng.UniformInt(2));
    pb::Dataset d2 = pb::Dataset::FromColumns(s, std::move(cols));
    std::vector<int> attrs = {0, 1};
    double s1 = pb::ComputeScore(score, d1.JointCounts(attrs), n);
    double s2 = pb::ComputeScore(score, d2.JointCounts(attrs), n);
    worst = std::max(worst, std::abs(s1 - s2));
  }
  return worst;
}

double TimeScoreMicros(pb::ScoreKind score, const pb::Dataset& data,
                       int pairs) {
  auto start = std::chrono::steady_clock::now();
  std::vector<int> attrs = {0, 1, 2, 3};  // 3 parents + child
  for (int p = 0; p < pairs; ++p) {
    attrs[0] = p % data.num_attrs();
    attrs[1] = (p + 3) % data.num_attrs();
    attrs[2] = (p + 7) % data.num_attrs();
    attrs[3] = (p + 11) % data.num_attrs();
    if (attrs[0] == attrs[3] || attrs[1] == attrs[3] || attrs[2] == attrs[3]) {
      continue;
    }
    pb::ProbTable counts = data.JointCounts(attrs);
    (void)pb::ComputeScore(score, counts, data.num_rows(), 8192);
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() /
         pairs;
}

}  // namespace

int main() {
  int trials = pb::BenchRepeats(1) * 4000;
  pb::PrintBenchHeader(
      "Table 4",
      "Score-function properties: range, sensitivity (theory vs empirical "
      "max over neighbour pairs), per-pair evaluation time",
      pb::BenchRepeats(1));
  const int64_t n_small = 30;
  pb::Dataset nltcs = pb::MakeNltcs(pb::BenchSeed(), 21574);

  std::printf("%-8s %10s %16s %16s %14s\n", "Function", "Range",
              "S (theory)", "S (empirical)", "time/pair us");
  struct Row {
    pb::ScoreKind kind;
    double theory;
  };
  Row rows[] = {
      {pb::ScoreKind::kI, pb::SensitivityI(n_small, true)},
      {pb::ScoreKind::kF, pb::SensitivityF(n_small)},
      {pb::ScoreKind::kR, pb::SensitivityR(n_small)},
  };
  for (const Row& row : rows) {
    double empirical = EmpiricalSensitivity(row.kind, trials, pb::BenchSeed());
    double micros = TimeScoreMicros(row.kind, nltcs, 40);
    const char* range = row.kind == pb::ScoreKind::kI ? "[0,1]" : "[−1/2,1/2]";
    std::printf("%-8s %10s %16.6f %16.6f %14.1f\n",
                pb::ScoreName(row.kind), range, row.theory, empirical, micros);
    std::printf("CSV,Table4,%s,sensitivity_theory,%.8f\n",
                pb::ScoreName(row.kind), row.theory);
    std::printf("CSV,Table4,%s,sensitivity_empirical,%.8f\n",
                pb::ScoreName(row.kind), empirical);
    std::printf("CSV,Table4,%s,time_per_pair_us,%.2f\n",
                pb::ScoreName(row.kind), micros);
    if (empirical > row.theory + 1e-9) {
      std::printf("!! SENSITIVITY VIOLATION for %s\n", pb::ScoreName(row.kind));
      return 1;
    }
  }
  std::printf(
      "\nShape check (paper Table 4): S(F) < S(R) < S(I); F costs far more "
      "time than I and R.\n");
  return 0;
}
