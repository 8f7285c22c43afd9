#include "common/numa.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#ifdef __linux__
#include <unistd.h>
#endif

namespace privbayes {

namespace {

NumaTopology DiscoverTopology() {
  NumaTopology topo;
#ifdef __linux__
  for (int node = 0;; ++node) {
    std::ostringstream path;
    path << "/sys/devices/system/node/node" << node << "/cpulist";
    std::ifstream in(path.str());
    if (!in) break;
    std::string list;
    std::getline(in, list);
    std::vector<int> cpus = ParseCpuList(list);
    if (cpus.empty()) break;
    topo.node_cpus.push_back(std::move(cpus));
  }
#endif
  if (topo.node_cpus.empty()) {
    // No sysfs topology: one node holding every CPU.
    std::vector<int> cpus;
    long n = 1;
#ifdef __linux__
    n = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (n < 1) n = 1;
#endif
    for (int c = 0; c < static_cast<int>(n); ++c) cpus.push_back(c);
    topo.node_cpus.push_back(std::move(cpus));
  }
  return topo;
}

}  // namespace

std::vector<int> ParseCpuList(const std::string& list) {
  std::vector<int> cpus;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    const size_t dash = token.find('-');
    char* end = nullptr;
    if (dash == std::string::npos) {
      long v = std::strtol(token.c_str(), &end, 10);
      if (end != token.c_str()) cpus.push_back(static_cast<int>(v));
    } else {
      long lo = std::strtol(token.substr(0, dash).c_str(), nullptr, 10);
      long hi = std::strtol(token.substr(dash + 1).c_str(), nullptr, 10);
      for (long v = lo; v <= hi; ++v) cpus.push_back(static_cast<int>(v));
    }
  }
  return cpus;
}

const NumaTopology& NumaTopo() {
  static const NumaTopology* topo = new NumaTopology(DiscoverTopology());
  return *topo;
}

}  // namespace privbayes
