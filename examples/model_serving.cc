// Model serving: the fit-once / serve-forever workflow, on the serving
// subsystem (src/serve).
//
// The fitted PrivBayes model IS the private release — once ε is spent, the
// model can be archived, reloaded, sampled, and queried any number of times
// at zero additional privacy cost (post-processing). This example walks the
// production path end to end:
//   1. fits two models and archives them with a registry manifest
//      (core/model_io.h),
//   2. boots a ModelRegistry from the manifest — the serving process never
//      sees the sensitive data,
//   3. serves batch sampling through SamplingService (deterministic:
//      same request seed ⇒ same rows) and direct marginal queries through
//      QueryService (core/inference.h — the paper's §7 direction),
//   4. hot-swaps a model while a request handle is in flight.
//
// The TCP front-end over the same services is tools/privbayes_serve.cc +
// examples/serve_client.cc.

#include <cstdio>
#include <cstdlib>

#include "core/model_io.h"
#include "core/privbayes.h"
#include "data/generators.h"
#include "query/marginal_workload.h"
#include "serve/model_registry.h"
#include "serve/query_service.h"
#include "serve/sampling_service.h"

namespace pb = privbayes;

int main() {
  // --- Data-owner side: fit once, archive, publish a manifest. ------------
  pb::Dataset sensitive = pb::MakeNltcs(/*seed=*/99, /*num_rows=*/21574);
  auto fit = [&](double epsilon) {
    pb::PrivBayesOptions options;
    options.epsilon = epsilon;
    options.candidate_cap = 200;
    pb::PrivBayes privbayes(options);
    pb::Rng rng(1);
    std::printf("Fitting (ε = %.2f)...\n", epsilon);
    return privbayes.Fit(sensitive, rng);
  };
  pb::SaveModelFile(fit(0.4), "nltcs-e04.privbayes-model");
  pb::SaveModelFile(fit(4.0), "nltcs-e40.privbayes-model");
  pb::SaveRegistryManifestFile(
      {{"nltcs-lo", "nltcs-e04.privbayes-model"},
       {"nltcs-hi", "nltcs-e40.privbayes-model"}},
      "nltcs.privbayes-registry");
  std::printf("Archived 2 models + manifest nltcs.privbayes-registry\n\n");

  // --- Serving side: no access to the sensitive data from here on. -------
  pb::ModelRegistry registry;
  registry.LoadManifestFile("nltcs.privbayes-registry");
  pb::SamplingService sampling(&registry);
  pb::QueryService query(&registry);
  std::printf("Registry serves:");
  for (const std::string& name : registry.Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  // A batch request: deterministic in (model, rows, seed).
  pb::SampleRequest request;
  request.model = "nltcs-lo";
  request.num_rows = sensitive.num_rows();
  request.seed = 2;
  pb::Dataset synthetic = sampling.SampleToDataset(request);
  std::printf("Sampled %d rows from %s (re-request with seed %llu for the "
              "same table)\n",
              synthetic.num_rows(), request.model.c_str(),
              static_cast<unsigned long long>(request.seed));

  // Marginal accuracy: answers sampled from synthetic rows vs computed
  // directly from the served model — the §7 "answer from the model" idea
  // drops the sampling-noise term at zero additional privacy cost.
  pb::MarginalWorkload workload =
      pb::MarginalWorkload::AllAlphaWay(sensitive.schema(), 3);
  pb::Rng wrng(3);
  workload.SubsampleTo(60, wrng);
  double sampled_err = pb::AverageMarginalTvd(sensitive, workload, synthetic);
  double direct_err = pb::AverageMarginalTvd(sensitive, workload,
                                             query.Provider("nltcs-lo"));
  std::printf("Average Q3 variation distance vs the sensitive data:\n");
  std::printf("  answers sampled from synthetic rows : %.4f\n", sampled_err);
  std::printf("  answers computed from the model     : %.4f\n", direct_err);

  // Hot-swap: replace nltcs-lo while a request handle is out. The handle
  // keeps serving the OLD model until released; new requests get the new
  // one. This is how a fleet refreshes models under live traffic.
  auto in_flight = registry.Require("nltcs-lo");
  registry.Put("nltcs-lo", pb::LoadModelFile("nltcs-e40.privbayes-model"));
  auto fresh = registry.Require("nltcs-lo");
  std::printf("\nHot-swapped nltcs-lo: in-flight handle still serves ε=%.2f, "
              "new requests get ε=%.2f\n",
              in_flight->model().epsilon1 + in_flight->model().epsilon2,
              fresh->model().epsilon1 + fresh->model().epsilon2);
  std::printf("Sampling service: %llu batches served\n",
              static_cast<unsigned long long>(
                  sampling.admission().admitted_total()));
  return 0;
}
