// NUMA topology discovery: the nodes of this machine and their CPUs, read
// from /sys/devices/system/node (no libnuma dependency). Reported by the
// end-to-end benchmark next to its measurements; the library places no
// thread or page by node.

#ifndef PRIVBAYES_COMMON_NUMA_H_
#define PRIVBAYES_COMMON_NUMA_H_

#include <string>
#include <vector>

namespace privbayes {

/// NUMA nodes and their CPU lists, discovered once from sysfs. A machine
/// without /sys/devices/system/node reports one node holding every CPU.
struct NumaTopology {
  std::vector<std::vector<int>> node_cpus;  ///< node_cpus[node] = CPU ids
  int num_nodes() const { return static_cast<int>(node_cpus.size()); }
};

/// The process-wide topology (computed on first call; thread-safe).
const NumaTopology& NumaTopo();

/// Parses a sysfs cpulist string ("0-3,8,10-11"); exposed for tests.
std::vector<int> ParseCpuList(const std::string& list);

}  // namespace privbayes

#endif  // PRIVBAYES_COMMON_NUMA_H_
