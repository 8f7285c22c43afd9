// Environment-variable knobs shared by the benchmark harness.
//
// The paper averages every experiment over 100 repetitions; that is hours of
// compute. The bench binaries default to a small number of repetitions and an
// evaluation-workload subsample so the whole suite finishes in minutes, and
// read these knobs to scale back up to paper fidelity:
//
//   PRIVBAYES_REPEATS    — repetitions per configuration (default per bench)
//   PRIVBAYES_FULL=1     — disable all workload subsampling / candidate caps
//   PRIVBAYES_SEED       — base RNG seed (default 20140614, the SIGMOD'14 date)

#ifndef PRIVBAYES_COMMON_ENV_H_
#define PRIVBAYES_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace privbayes {

/// Reads a whole non-negative integer environment variable (common/flags.h
/// ParseCount). Returns `def` when the variable is unset or empty; throws
/// std::invalid_argument naming the variable and its text on anything else
/// ("12x", "-1", " 3"), so a typo never runs silently on the default.
int64_t EnvInt(const std::string& name, int64_t def);

/// Reads a finite non-negative number from the environment, with EnvInt's
/// rules: `def` when unset or empty, std::invalid_argument when malformed.
double EnvDouble(const std::string& name, double def);

/// True when the variable is set to a non-empty, non-"0" value.
bool EnvFlag(const std::string& name);

/// Repetition count for benches: PRIVBAYES_REPEATS or `def`.
int BenchRepeats(int def);

/// Base seed for benches: PRIVBAYES_SEED or 20140614.
uint64_t BenchSeed();

/// True when PRIVBAYES_FULL=1 (paper-fidelity mode: no subsampling).
bool FullFidelity();

/// Peak resident set size of this process in KiB (VmHWM from
/// /proc/self/status), or 0 where unavailable. The number the out-of-core
/// bench and CI lane assert on: for an mmap-backed fit it stays a small
/// fraction of the packed file because pages are evictable page cache.
int64_t PeakRssKb();

/// Peak address space of this process in KiB (VmPeak from
/// /proc/self/status), or 0 where unavailable. This is what `ulimit -v`
/// caps: mappings and reserved malloc arenas count here whether or not
/// their pages are resident.
int64_t PeakVmKb();

}  // namespace privbayes

#endif  // PRIVBAYES_COMMON_ENV_H_
