#include "simd/dispatch.h"

#include <cstdlib>

#include "common/strings.h"

namespace blitz {

namespace {

// Whether the running CPU reports the feature (cpuid). Non-x86 (or
// non-GNU) builds report nothing and the dispatcher settles on kScalar.
// __builtin_cpu_supports requires a literal argument, hence two probes.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
bool CpuSupportsAvx2() { return __builtin_cpu_supports("avx2"); }
bool CpuSupportsAvx512f() { return __builtin_cpu_supports("avx512f"); }
#else
bool CpuSupportsAvx2() { return false; }
bool CpuSupportsAvx512f() { return false; }
#endif

SimdLevel ProbeCpu() {
  if (SplitFilterAvx512Compiled() && CpuSupportsAvx512f()) {
    return SimdLevel::kAvx512;
  }
  if (SplitFilterAvx2Compiled() && CpuSupportsAvx2()) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kScalar;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kBlock:
      return "block";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Result<SimdLevel> ParseSimdLevel(std::string_view s) {
  if (s == "auto") return SimdLevel::kAuto;
  if (s == "scalar") return SimdLevel::kScalar;
  if (s == "block") return SimdLevel::kBlock;
  if (s == "avx2") return SimdLevel::kAvx2;
  if (s == "avx512") return SimdLevel::kAvx512;
  return Status::InvalidArgument(StrFormat(
      "unknown SIMD level '%.*s' (expected auto|scalar|block|avx2|avx512)",
      static_cast<int>(s.size()), s.data()));
}

SimdLevel DetectCpuSimdLevel() {
  static const SimdLevel detected = ProbeCpu();
  return detected;
}

SimdLevel ResolveSimdLevel(SimdLevel requested) {
  return ResolveSimdLevelDetailed(requested).level;
}

SimdResolution ResolveSimdLevelDetailed(SimdLevel requested) {
  if (requested == SimdLevel::kAuto) {
    // The environment override is read per resolution (i.e. once per
    // optimizer pass) so test harnesses can flip it between passes; only
    // the cpuid probe is cached.
    if (const char* env = std::getenv("BLITZ_SIMD")) {
      Result<SimdLevel> parsed = ParseSimdLevel(env);
      if (parsed.ok() && *parsed != SimdLevel::kAuto) {
        requested = *parsed;
      }
    }
  }
  if (requested == SimdLevel::kAuto) {
    return {DetectCpuSimdLevel(), /*from_auto=*/true};
  }
  // Clamp forced AVX requests to what this binary + CPU can run.
  const SimdLevel ceiling = DetectCpuSimdLevel();
  if (requested == SimdLevel::kAvx512 && ceiling != SimdLevel::kAvx512) {
    requested = SimdLevel::kAvx2;
  }
  if (requested == SimdLevel::kAvx2 && ceiling == SimdLevel::kScalar) {
    requested = SimdLevel::kScalar;
  }
  return {requested, /*from_auto=*/false};
}

namespace {
constexpr SplitKernel kKernelPortable{
    &SplitBuildDensePortable, &SplitFilterDensePortable,
    &SplitGatherDensePortable, &SplitFilterSmPortable,
    &SplitFilterDnlPortable};
constexpr SplitKernel kKernelAvx2{&SplitBuildDenseAvx2, &SplitFilterDenseAvx2,
                                  &SplitGatherDenseAvx2, &SplitFilterSmAvx2,
                                  &SplitFilterDnlAvx2};
constexpr SplitKernel kKernelAvx512{
    &SplitBuildDenseAvx512, &SplitFilterDenseAvx512, &SplitGatherDenseAvx512,
    &SplitFilterSmAvx512, &SplitFilterDnlAvx512};
}  // namespace

const SplitKernel* GetSplitKernel(SimdLevel resolved) {
  switch (resolved) {
    case SimdLevel::kBlock:
      return &kKernelPortable;
    case SimdLevel::kAvx2:
      return &kKernelAvx2;
    case SimdLevel::kAvx512:
      return &kKernelAvx512;
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      break;
  }
  return nullptr;
}

}  // namespace blitz
