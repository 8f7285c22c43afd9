#include "common/env.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/check.h"
#include "common/flags.h"

namespace privbayes {

int64_t EnvInt(const std::string& name, int64_t def) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return def;
  const std::optional<long long> parsed =
      ParseCount(v, std::numeric_limits<int64_t>::max());
  PB_THROW_IF(!parsed, name << "='" << v
                            << "' is not a whole non-negative integer");
  return *parsed;
}

double EnvDouble(const std::string& name, double def) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return def;
  const std::optional<double> parsed = ParseNonNegativeDouble(v);
  PB_THROW_IF(!parsed, name << "='" << v
                            << "' is not a finite non-negative number");
  return *parsed;
}

bool EnvFlag(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

int BenchRepeats(int def) {
  return static_cast<int>(EnvInt("PRIVBAYES_REPEATS", def));
}

uint64_t BenchSeed() {
  return static_cast<uint64_t>(EnvInt("PRIVBAYES_SEED", 20140614));
}

bool FullFidelity() { return EnvFlag("PRIVBAYES_FULL"); }

namespace {

// A "<field>:  <n> kB" line of /proc/self/status, in KiB; 0 when absent.
int64_t ProcStatusKb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  if (!in) return 0;
  const std::string prefix = field + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      int64_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace

int64_t PeakRssKb() { return ProcStatusKb("VmHWM"); }

int64_t PeakVmKb() { return ProcStatusKb("VmPeak"); }

}  // namespace privbayes
