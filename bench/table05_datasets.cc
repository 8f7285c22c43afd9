// Regenerates paper Table 5: dataset characteristics (cardinality,
// dimensionality, domain size), plus the taxonomy inventory and the §6.1
// classification-target base rates of the synthetic stand-in populations.

#include <cmath>
#include <cstdio>

#include "bench_util/report.h"
#include "bench_util/tasks.h"
#include "common/env.h"

namespace pb = privbayes;

int main() {
  pb::PrintBenchHeader(
      "Table 5", "Dataset characteristics (synthetic stand-ins)",
      1);
  std::printf("%-8s %12s %14s %12s\n", "Dataset", "Cardinality",
              "Dimensionality", "Domain size");
  for (const char* name : {"NLTCS", "ACS", "Adult", "BR2000"}) {
    pb::DatasetBundle bundle = pb::LoadBundle(name, pb::BenchSeed());
    std::printf("%-8s %12d %14d %9.0f bits\n", name, bundle.data.num_rows(),
                bundle.data.num_attrs(), bundle.data.schema().DomainBits());
    std::printf("CSV,Table5,%s,rows,%d\n", name, bundle.data.num_rows());
    std::printf("CSV,Table5,%s,attrs,%d\n", name, bundle.data.num_attrs());
    std::printf("CSV,Table5,%s,domain_bits,%.2f\n", name,
                bundle.data.schema().DomainBits());
  }
  std::printf("\nPer-dataset detail:\n");
  for (const char* name : {"Adult", "BR2000"}) {
    pb::DatasetBundle bundle = pb::LoadBundle(name, pb::BenchSeed());
    std::printf("  %s attributes (cardinality / taxonomy levels):\n", name);
    const pb::Schema& s = bundle.data.schema();
    for (int a = 0; a < s.num_attrs(); ++a) {
      std::printf("    %-14s %4d / %d\n", s.attr(a).name.c_str(),
                  s.Cardinality(a), s.attr(a).taxonomy.num_levels());
    }
  }
  std::printf("\nClassification targets (positive rates, §6.1):\n");
  for (const char* name : {"NLTCS", "ACS", "Adult", "BR2000"}) {
    pb::DatasetBundle bundle = pb::LoadBundle(name, pb::BenchSeed());
    for (const pb::LabelSpec& label : bundle.labels) {
      std::printf("  %-8s Y=%-10s positive rate %.3f\n", name,
                  label.name.c_str(), pb::PositiveRate(bundle.data, label));
    }
  }
  return 0;
}
