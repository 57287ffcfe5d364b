#ifndef BLITZ_SIMD_DISPATCH_H_
#define BLITZ_SIMD_DISPATCH_H_

#include <string_view>

#include "common/status.h"
#include "simd/split_filter.h"

namespace blitz {

/// Which realization of the find_best_split filter a pass runs. kAuto is a
/// *request* only (the default in every options struct); resolution turns
/// it into one of the concrete levels, so a resolved level is never kAuto.
///
///   kScalar — the classic unblocked nested-if loop (the paper's Section
///             4.2 code, byte-for-byte the pre-SIMD optimizer).
///   kBlock  — the dense-compaction driver with the portable (no target
///             features) kernel pair; the measurable control for "does
///             the restructuring alone help" and the shape non-x86
///             hardware would run.
///   kAvx2   — dense-compaction driver, 8-lane build/filter kernels.
///   kAvx512 — dense-compaction driver, 16-lane build/filter kernels.
enum class SimdLevel { kAuto, kScalar, kBlock, kAvx2, kAvx512 };

/// "auto", "scalar", "block", "avx2", "avx512".
const char* SimdLevelName(SimdLevel level);

/// Parses the strings produced by SimdLevelName (case-sensitive).
Result<SimdLevel> ParseSimdLevel(std::string_view s);

/// The best level this binary can actually run: the highest instruction
/// set that was both compiled into the kernels and is reported by the CPU
/// (cpuid via __builtin_cpu_supports). kScalar when neither AVX level
/// qualifies — kBlock is never chosen automatically, because on hardware
/// without wide gathers the classic loop is the proven baseline. The probe
/// runs once per process (function-local static).
SimdLevel DetectCpuSimdLevel();

/// Resolves a request to a concrete level, once per optimizer pass:
///   1. kAuto consults the BLITZ_SIMD environment variable
///      ("scalar"|"block"|"avx2"|"avx512"; unset or unparsable falls
///      through to DetectCpuSimdLevel()).
///   2. A request (explicit or from the environment) above what this
///      machine supports is clamped down (avx512 -> avx2 -> scalar), so a
///      forced level can never fault; kBlock is always runnable.
SimdLevel ResolveSimdLevel(SimdLevel requested);

/// ResolveSimdLevel plus provenance: `from_auto` is true when the level
/// came from the cpuid probe because neither the request nor BLITZ_SIMD
/// supplied an explicit level. Auto-chosen levels are subject to the
/// per-cost-model refinement in core/optimizer.cc (the batched kernel only
/// pays off where its filter is the complete cost comparison — see
/// CostModel::kSplitGateTight and kSplitBound); explicit requests are
/// always honored.
struct SimdResolution {
  SimdLevel level;
  bool from_auto;
};
SimdResolution ResolveSimdLevelDetailed(SimdLevel requested);

/// Minimum problem size (relations) for an *auto*-chosen level to engage
/// the batched kernel, per filter. Below these the dense-compaction build
/// cost and the per-subset setup outweigh the filter's win, so auto falls
/// back to the classic loop. Explicit requests (--simd=, BLITZ_SIMD) are
/// exempt, keeping every combination measurable.
///
/// The operand gate of a gate-tight model (naive): BENCH_fig2.json
/// measured 0.88-1.04x at n = 5-11 and 1.27x at n = 12.
inline constexpr int kSimdMinAutoRelations = 12;
/// The whole-cost filters of kappa_sm and kappa_dnl on passes that count
/// nothing: BENCH_fig2.json measured sm 0.76-1.03x at n = 5-11 and
/// 1.07-1.22x from n = 12, dnl 0.95-1.13x at n = 5-9 and 1.26-1.61x from
/// n = 10.
inline constexpr int kSimdMinAutoRelationsSortMerge = 12;
inline constexpr int kSimdMinAutoRelationsDnl = 10;

/// The dense-compaction build/filter pair for a *resolved* level, or
/// nullptr for kScalar — the drivers treat a null kernel as "run the
/// classic loop". The returned pointer has static storage duration.
const SplitKernel* GetSplitKernel(SimdLevel resolved);

}  // namespace blitz

#endif  // BLITZ_SIMD_DISPATCH_H_
