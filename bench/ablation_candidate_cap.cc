// Extra ablation (README, "Reproducing the paper"): sensitivity of network
// quality to the data-independent candidate cap the benches use in place of
// the paper's exhaustive candidate enumeration. If the Σ-mutual-information curve is
// flat in the cap, the cap is a safe throughput substitution.

#include <string>
#include <vector>

#include "bench_util/report.h"
#include "bench_util/tasks.h"
#include "common/env.h"
#include "core/private_greedy.h"

namespace pb = privbayes;

int main() {
  int repeats = pb::BenchRepeats(2);
  pb::PrintBenchHeader("Ablation",
                       "Candidate-cap sensitivity: Σ mutual information of "
                       "the learned NLTCS network vs per-iteration cap",
                       repeats);
  pb::Dataset data = pb::MakeNltcs(pb::BenchSeed(), 21574);
  std::vector<double> caps = {50, 100, 200, 400, 800, 1600};
  std::vector<std::string> lines = {"eps=0.2", "eps=1.6", "eps=0.2 noiseless"};
  std::vector<double> eps_of_line = {0.2, 1.6, 0.2};

  pb::SeriesTable table("cap", caps, lines);
  for (size_t ci = 0; ci < caps.size(); ++ci) {
    for (size_t li = 0; li < lines.size(); ++li) {
      for (int rep = 0; rep < repeats; ++rep) {
        pb::PrivateGreedyOptions opts;
        opts.score = pb::ScoreKind::kF;
        opts.epsilon1 = li == 2 ? 0.0 : 0.3 * eps_of_line[li];
        opts.epsilon2_plan = 0.7 * eps_of_line[li];
        opts.theta = 4.0;
        opts.candidate_cap = static_cast<size_t>(caps[ci]);
        opts.f_max_states = 2048;
        pb::Rng rng(pb::DeriveSeed(pb::BenchSeed(),
                                   130000 + ci * 31 + li * 7 + rep));
        pb::LearnedNetwork learned =
            pb::LearnNetworkBinary(data, opts, rng, nullptr);
        table.Add(ci, li, pb::SumMutualInformation(data, learned.net));
      }
    }
  }
  table.Print("Ablation candidate cap (NLTCS)", "sum of mutual information");
  pb::PrintMarginalStoreStats();
  return 0;
}
