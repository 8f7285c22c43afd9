// Runtime CPU-feature dispatch for the SIMD counting kernels.
//
// The kernel translation units (data/count_kernels_avx2.cc, _avx512.cc) are
// compiled with per-file -mavx2 / -mavx512* flags so the rest of the library
// can be built for a generic baseline; which kernel actually runs is decided
// here, once, at first use:
//
//   active level = min(what the CPU reports, what the compiler could build,
//                      what PRIVBAYES_SIMD allows)
//
// PRIVBAYES_SIMD is the testing/escape-hatch override:
//   off | scalar | 0  -> scalar kernels only;
//   avx2               -> cap at AVX2 even on AVX-512 hardware;
//   avx512 | auto | "" -> everything the CPU supports.
//
// The scalar kernels are always compiled and always correct; every dispatch
// decision only selects among implementations proven bit-identical by the
// equivalence tests.

#ifndef PRIVBAYES_COMMON_CPU_H_
#define PRIVBAYES_COMMON_CPU_H_

namespace privbayes {

/// Instruction-set tiers the counting kernels are specialized for. Ordering
/// is meaningful: higher levels strictly extend lower ones.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar" / "avx2" / "avx512".
const char* SimdLevelName(SimdLevel level);

/// Highest level both supported by the running CPU and compiled into this
/// binary (the build defines PRIVBAYES_COMPILED_AVX2/_AVX512 when the
/// compiler accepted the per-file kernel flags). Computed once.
SimdLevel DetectedSimdLevel();

/// True when the CPU supports AVX-512VPOPCNTDQ (Ice Lake+); gates the
/// vectorized popcount-tree kernel separately from the base AVX-512 level,
/// which only needs F+BW.
bool CpuHasAvx512Vpopcntdq();

/// Parses a PRIVBAYES_SIMD-style value and clamps it to `detected`.
/// nullptr / "" / "auto" / unrecognized values return `detected`.
SimdLevel SimdLevelFromString(const char* value, SimdLevel detected);

/// The dispatch decision every counting and sampling call consults.
struct SimdConfig {
  SimdLevel level = SimdLevel::kScalar;
};

/// Active configuration: detected level clamped by PRIVBAYES_SIMD (read once
/// on first call; thread-safe).
const SimdConfig& ActiveSimd();

/// Test hooks: force a level (clamped to DetectedSimdLevel, so forcing
/// "avx512" on a scalar-only host is a no-op) / restore the
/// environment-derived default.
void SetSimdForTesting(SimdLevel level);
void ResetSimdForTesting();

}  // namespace privbayes

#endif  // PRIVBAYES_COMMON_CPU_H_
