#include "common/cpu.h"

#include <cctype>
#include <cstdlib>

namespace privbayes {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PRIVBAYES_CPU_DETECT 1
#else
#define PRIVBAYES_CPU_DETECT 0
#endif

bool CompiledAvx2() {
#ifdef PRIVBAYES_COMPILED_AVX2
  return true;
#else
  return false;
#endif
}

bool CompiledAvx512() {
#ifdef PRIVBAYES_COMPILED_AVX512
  return true;
#else
  return false;
#endif
}

SimdLevel DetectOnce() {
#if PRIVBAYES_CPU_DETECT
  __builtin_cpu_init();
  // The AVX-512 kernels use 512-bit byte ops (F+BW); VL/VPOPCNTDQ extras are
  // gated separately so Skylake-X-era parts still get the index kernel.
  if (CompiledAvx512() && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    return SimdLevel::kAvx512;
  }
  if (CompiledAvx2() && __builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

bool EqualsIgnoreCase(const char* a, const char* b) {
  for (; *a && *b; ++a, ++b) {
    if (std::tolower(static_cast<unsigned char>(*a)) !=
        std::tolower(static_cast<unsigned char>(*b))) {
      return false;
    }
  }
  return *a == *b;
}

bool IsOffValue(const char* value) {
  return EqualsIgnoreCase(value, "off") || EqualsIgnoreCase(value, "scalar") ||
         EqualsIgnoreCase(value, "0") || EqualsIgnoreCase(value, "none");
}

SimdConfig ConfigFromEnv() {
  SimdConfig config;
  SimdLevel detected = DetectedSimdLevel();
  config.level = SimdLevelFromString(std::getenv("PRIVBAYES_SIMD"), detected);
  return config;
}

SimdConfig& MutableActive() {
  static SimdConfig config = ConfigFromEnv();
  return config;
}

}  // namespace

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = DetectOnce();
  return level;
}

bool CpuHasAvx512Vpopcntdq() {
#if PRIVBAYES_CPU_DETECT
  static const bool has = [] {
    __builtin_cpu_init();
    return CompiledAvx512() && __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }();
  return has;
#else
  return false;
#endif
}

SimdLevel SimdLevelFromString(const char* value, SimdLevel detected) {
  if (value == nullptr || *value == '\0') return detected;
  if (IsOffValue(value)) return SimdLevel::kScalar;
  if (EqualsIgnoreCase(value, "avx2")) {
    return detected < SimdLevel::kAvx2 ? detected : SimdLevel::kAvx2;
  }
  if (EqualsIgnoreCase(value, "avx512")) {
    return detected < SimdLevel::kAvx512 ? detected : SimdLevel::kAvx512;
  }
  return detected;  // "auto" and anything unrecognized
}

const SimdConfig& ActiveSimd() { return MutableActive(); }

void SetSimdForTesting(SimdLevel level) {
  SimdLevel detected = DetectedSimdLevel();
  MutableActive() = SimdConfig{level < detected ? level : detected};
}

void ResetSimdForTesting() { MutableActive() = ConfigFromEnv(); }

}  // namespace privbayes
