#include "bench_util/figures.h"

#include <vector>

#include "baselines/contingency.h"
#include "baselines/fourier.h"
#include "baselines/laplace_marginals.h"
#include "baselines/majority.h"
#include "baselines/mwem.h"
#include "baselines/private_erm.h"
#include "baselines/privgene.h"
#include "baselines/uniform.h"
#include "bench_util/report.h"
#include "bench_util/tasks.h"
#include "common/env.h"

namespace privbayes {

namespace {

struct EncodingMethod {
  const char* name;
  EncodingKind encoding;
  ScoreKind score;
};

std::vector<EncodingMethod> EncodingMethods() {
  return {
      {"Binary-F", EncodingKind::kBinary, ScoreKind::kF},
      {"Gray-F", EncodingKind::kGray, ScoreKind::kF},
      {"Vanilla-R", EncodingKind::kVanilla, ScoreKind::kR},
      {"Hierarchical-R", EncodingKind::kHierarchical, ScoreKind::kR},
  };
}

std::vector<std::string> Names(const std::vector<EncodingMethod>& methods) {
  std::vector<std::string> names;
  for (const EncodingMethod& m : methods) names.emplace_back(m.name);
  return names;
}

// Evaluation-workload subsample size, drawn with a fixed seed so every
// method sees the same queries (README, "Reproducing the paper"). ACS
// full-domain projections make big workloads costly.
size_t EvalQueriesFor(const std::string& dataset) {
  if (dataset == "ACS") return 40;
  return 120;
}

}  // namespace

void RunEncodingCountFigure(const std::string& figure,
                            const std::string& dataset) {
  int repeats = BenchRepeats(1);
  PrintBenchHeader(figure,
                   "Encodings on count queries, " + dataset +
                       " (β = 0.3, θ = 4); paper shape: non-binary encodings "
                       "win at small ε",
                   repeats);
  DatasetBundle bundle = LoadBundle(dataset, BenchSeed());
  std::vector<double> eps = EpsilonGrid();
  std::vector<EncodingMethod> methods = EncodingMethods();

  std::vector<int> alphas = CountAlphasFor(dataset);
  std::vector<MarginalWorkload> workloads;
  std::vector<SeriesTable> tables;
  for (int alpha : alphas) {
    workloads.push_back(MakeEvalWorkload(bundle.data.schema(), dataset, alpha,
                                         EvalQueriesFor(dataset), nullptr));
    tables.emplace_back("epsilon", eps, Names(methods));
  }
  for (size_t ei = 0; ei < eps.size(); ++ei) {
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      for (int rep = 0; rep < repeats; ++rep) {
        PrivBayesOptions opts = BenchPrivBayesOptions(eps[ei]);
        opts.encoding = methods[mi].encoding;
        opts.score = methods[mi].score;
        uint64_t seed =
            DeriveSeed(BenchSeed(), 50000 + ei * 911 + mi * 13 + rep);
        Dataset synth = RunPrivBayes(bundle.data, opts, seed);
        for (size_t ai = 0; ai < alphas.size(); ++ai) {
          tables[ai].Add(ei, mi, CountError(bundle.data, workloads[ai], synth));
        }
      }
    }
  }
  for (size_t ai = 0; ai < alphas.size(); ++ai) {
    tables[ai].Print(figure + " " + dataset + " Q" + std::to_string(alphas[ai]),
                     "average variation distance");
  }
}

void RunEncodingSvmFigure(const std::string& figure,
                          const std::string& dataset) {
  int repeats = BenchRepeats(1);
  PrintBenchHeader(figure,
                   "Encodings on SVM classification, " + dataset +
                       " (one synthetic dataset trains all four classifiers)",
                   repeats);
  DatasetBundle bundle = LoadBundle(dataset, BenchSeed());
  std::vector<double> eps = EpsilonGrid();
  std::vector<EncodingMethod> methods = EncodingMethods();
  std::vector<SeriesTable> tables;
  for (const LabelSpec& label : bundle.labels) {
    (void)label;
    tables.emplace_back("epsilon", eps, Names(methods));
  }
  for (size_t ei = 0; ei < eps.size(); ++ei) {
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      for (int rep = 0; rep < repeats; ++rep) {
        PrivBayesOptions opts = BenchPrivBayesOptions(eps[ei]);
        opts.encoding = methods[mi].encoding;
        opts.score = methods[mi].score;
        uint64_t seed =
            DeriveSeed(BenchSeed(), 70000 + ei * 911 + mi * 13 + rep);
        Dataset synth = RunPrivBayes(bundle.train, opts, seed);
        for (size_t li = 0; li < bundle.labels.size(); ++li) {
          tables[li].Add(ei, mi,
                         SvmError(synth, bundle.test, bundle.labels[li],
                                  DeriveSeed(seed, li)));
        }
      }
    }
  }
  for (size_t li = 0; li < bundle.labels.size(); ++li) {
    tables[li].Print(figure + " " + dataset + " Y=" + bundle.labels[li].name,
                     "misclassification rate");
  }
}

void RunMarginalBaselinesFigure(const std::string& figure,
                                const std::string& dataset,
                                bool full_domain_baselines) {
  int repeats = BenchRepeats(1);
  PrintBenchHeader(figure,
                   "PrivBayes vs count-query baselines, " + dataset +
                       "; paper shape: PrivBayes wins, most at small ε and "
                       "larger α",
                   repeats);
  DatasetBundle bundle = LoadBundle(dataset, BenchSeed());
  const Dataset& data = bundle.data;
  std::vector<double> eps = EpsilonGrid();
  std::vector<std::string> methods = {"PrivBayes", "Laplace", "Fourier"};
  if (full_domain_baselines) {
    methods.push_back("Contingency");
    methods.push_back("MWEM");
  }
  methods.push_back("Uniform");

  std::vector<int> alphas = CountAlphasFor(dataset);
  std::vector<MarginalWorkload> workloads;
  std::vector<MarginalWorkload> full_workloads;
  std::vector<size_t> full_sizes(alphas.size());
  std::vector<SeriesTable> tables;
  for (size_t ai = 0; ai < alphas.size(); ++ai) {
    workloads.push_back(MakeEvalWorkload(data.schema(), dataset, alphas[ai],
                                         EvalQueriesFor(dataset),
                                         &full_sizes[ai]));
    full_workloads.push_back(
        MarginalWorkload::AllAlphaWay(data.schema(), alphas[ai]));
    tables.emplace_back("epsilon", eps, methods);
  }

  for (size_t ei = 0; ei < eps.size(); ++ei) {
    for (int rep = 0; rep < repeats; ++rep) {
      uint64_t seed = DeriveSeed(BenchSeed(), 120000 + ei * 613 + rep);
      // PrivBayes: one synthetic dataset answers every workload.
      {
        PrivBayesOptions opts = BenchPrivBayesOptions(eps[ei]);
        Dataset synth = RunPrivBayes(data, opts, DeriveSeed(seed, 1));
        for (size_t ai = 0; ai < alphas.size(); ++ai) {
          tables[ai].Add(ei, 0, CountError(data, workloads[ai], synth));
        }
      }
      // Laplace / Fourier budget per α-workload.
      for (size_t ai = 0; ai < alphas.size(); ++ai) {
        Rng lrng(DeriveSeed(seed, 200 + ai));
        std::vector<ProbTable> noisy = LaplaceMarginals(
            data, workloads[ai], eps[ei], lrng, full_sizes[ai]);
        double total = 0;
        for (size_t q = 0; q < workloads[ai].size(); ++q) {
          total += EmpiricalMarginal(data, workloads[ai].attr_sets[q])
                       .TotalVariationDistance(noisy[q]);
        }
        tables[ai].Add(ei, 1, total / workloads[ai].size());

        Rng frng(DeriveSeed(seed, 300 + ai));
        std::vector<ProbTable> fourier =
            FourierMarginals(data, workloads[ai], eps[ei], frng,
                             &full_workloads[ai]);
        total = 0;
        for (size_t q = 0; q < workloads[ai].size(); ++q) {
          total += EmpiricalMarginal(data, workloads[ai].attr_sets[q])
                       .TotalVariationDistance(fourier[q]);
        }
        tables[ai].Add(ei, 2, total / workloads[ai].size());
      }
      size_t next_col = 3;
      if (full_domain_baselines) {
        // Contingency: one noisy full table serves both workloads.
        Rng crng(DeriveSeed(seed, 400));
        MarginalProvider contingency = ContingencyProvider(data, eps[ei], crng);
        for (size_t ai = 0; ai < alphas.size(); ++ai) {
          tables[ai].Add(ei, next_col,
                         AverageMarginalTvd(data, workloads[ai], contingency));
        }
        ++next_col;
        // MWEM: optimized per workload (its budget is per released query
        // set, like the paper).
        for (size_t ai = 0; ai < alphas.size(); ++ai) {
          Rng mrng(DeriveSeed(seed, 500 + ai));
          MwemOptions mopts;
          ProbTable approx =
              RunMwem(data, workloads[ai], eps[ei], mopts, mrng);
          tables[ai].Add(ei, next_col,
                         AverageMarginalTvd(data, workloads[ai],
                                            FullTableProvider(std::move(approx))));
        }
        ++next_col;
      }
      // Uniform (ε-independent; computed once per rep for table symmetry).
      for (size_t ai = 0; ai < alphas.size(); ++ai) {
        tables[ai].Add(ei, next_col,
                       AverageMarginalTvd(data, workloads[ai],
                                          UniformProvider(data.schema())));
      }
    }
  }
  for (size_t ai = 0; ai < alphas.size(); ++ai) {
    tables[ai].Print(figure + " " + dataset + " Q" + std::to_string(alphas[ai]),
                     "average variation distance");
  }
}

void RunSvmBaselinesFigure(const std::string& figure,
                           const std::string& dataset) {
  int repeats = BenchRepeats(1);
  PrintBenchHeader(figure,
                   "PrivBayes vs classification baselines, " + dataset +
                       " (multi-task methods split ε across the 4 targets)",
                   repeats);
  DatasetBundle bundle = LoadBundle(dataset, BenchSeed());
  std::vector<double> eps = EpsilonGrid();
  std::vector<std::string> methods = {"PrivBayes",  "PrivateERM",
                                      "ERM-Single", "PrivGene",
                                      "Majority",   "NoPrivacy"};
  std::vector<SeriesTable> tables;
  for (size_t li = 0; li < bundle.labels.size(); ++li) {
    tables.emplace_back("epsilon", eps, methods);
  }

  for (size_t ei = 0; ei < eps.size(); ++ei) {
    for (int rep = 0; rep < repeats; ++rep) {
      uint64_t seed = DeriveSeed(BenchSeed(), 160000 + ei * 613 + rep);
      // PrivBayes: one synthetic training set, all four classifiers — no
      // budget split needed (§6.6).
      PrivBayesOptions opts = BenchPrivBayesOptions(eps[ei]);
      Dataset synth = RunPrivBayes(bundle.train, opts, DeriveSeed(seed, 1));
      double eps_per_task = eps[ei] / bundle.labels.size();
      for (size_t li = 0; li < bundle.labels.size(); ++li) {
        const LabelSpec& label = bundle.labels[li];
        tables[li].Add(ei, 0,
                       SvmError(synth, bundle.test, label,
                                DeriveSeed(seed, 10 + li)));
        // PrivateERM at ε/4 and at full ε (Single).
        PrivateErmOptions eopts;
        Rng r1(DeriveSeed(seed, 20 + li));
        SvmModel erm =
            TrainPrivateErm(bundle.train, label, eps_per_task, eopts, r1);
        tables[li].Add(ei, 1, MisclassificationRate(bundle.test, label, erm));
        Rng r2(DeriveSeed(seed, 30 + li));
        SvmModel erm_single =
            TrainPrivateErm(bundle.train, label, eps[ei], eopts, r2);
        tables[li].Add(ei, 2,
                       MisclassificationRate(bundle.test, label, erm_single));
        // PrivGene at ε/4.
        PrivGeneOptions gopts;
        Rng r3(DeriveSeed(seed, 40 + li));
        SvmModel gene =
            TrainPrivGene(bundle.train, label, eps_per_task, gopts, r3);
        tables[li].Add(ei, 3, MisclassificationRate(bundle.test, label, gene));
        // Majority at ε/4.
        Rng r4(DeriveSeed(seed, 50 + li));
        MajorityModel maj =
            TrainMajority(bundle.train, label, eps_per_task, r4);
        tables[li].Add(ei, 4,
                       MajorityMisclassification(bundle.test, label, maj));
        // NoPrivacy (ε-independent).
        tables[li].Add(ei, 5,
                       SvmError(bundle.train, bundle.test, label,
                                DeriveSeed(seed, 60 + li)));
      }
    }
  }
  for (size_t li = 0; li < bundle.labels.size(); ++li) {
    tables[li].Print(figure + " " + dataset + " Y=" + bundle.labels[li].name,
                     "misclassification rate");
  }
}

}  // namespace privbayes
