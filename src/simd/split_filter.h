#ifndef BLITZ_SIMD_SPLIT_FILTER_H_
#define BLITZ_SIMD_SPLIT_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blitz {

/// Lanes per filter call; the survivor mask is one std::uint64_t bit per
/// lane, so this cannot exceed 64.
inline constexpr int kSplitFilterBlock = 64;

/// Minimum popcount(S) for the batched kernel to engage. A subset of
/// cardinality k has 2^k - 2 proper splits; below 62 of them the dense
/// build costs more than the scalar loop it replaces, and small subsets
/// vastly outnumber large ones. Subsets below the gate take the classic
/// scalar nested-if path, which is bit-identical by definition.
inline constexpr int kSimdMinPopcount = 6;

// The batched find_best_split kernel, in two stages built on one fact:
// enumerating the proper subsets of S with the two's-complement successor
//     succ(lhs) = S & (lhs - S)
// visits them in increasing order of their *dense rank* — the k-bit
// integer formed by compressing lhs onto the k set bits of S (rank r is
// the subset whose binary digits are r's digits deposited onto S's set
// bits, lowest first). Two consequences shape the kernel:
//
//   1. The successor sequence can be materialized without the serial
//      two-cycle-latency successor chain: idx[r] for all 2^k ranks is
//      built by doubling (idx[r + 2^t] = idx[r] | bit_t), a fully
//      vectorizable pass of contiguous loads and stores.
//   2. The complement's rank is full_rank - r (full_rank = 2^k - 1 is the
//      rank of S itself), so once the costs are gathered into dense rank
//      order (dc[r] = cost[idx[r]]) the model-independent split gate
//          cost[lhs] + cost[S \ lhs] < best
//      becomes dc[r] + dc[full_rank - r] < best — one contiguous forward
//      load plus one contiguous reversed load per vector of lanes. No
//      per-lane gathers in the hot loop, no successor chain, no branches.
//
// The build stage runs once per subset S and writes idx[0..2^k) and
// dc[0..2^k); its scattered cost[idx[r]] reads are the single gather pass
// (hardware gathers on AVX2/AVX-512), and the reversed half of dc it
// produces is the cost[rhs] stream the filter consumes. The filter stage
// scans dense ranks in blocks of up to kSplitFilterBlock lanes — software-
// prefetching the next block of both dc streams — and returns the
// survivor mask under the block-entry best; the caller re-runs survivors
// through the exact scalar nested-if body, in rank (= successor) order,
// against the live best. The filter never drops a lane the scalar gates
// would have accepted: costs are non-negative and rejected rows are +inf,
// so the sum compare is exactly the scalar gate conjunction, evaluated
// against a best that is >= the live best (conservative). Hence the DP
// table, the best_lhs tie-breaks (first strict improvement in successor
// order), and the instrumentation counts are bit-identical to the classic
// loop for every cost model.

// The cost-model-aware filter (production passes only). For models with a
// split-dependent kappa'' the operand gate above passes nearly every lane
// (best tracks oprnd + kappa'' minima, far above the operand sums), so
// passes that count nothing evaluate the *whole* split cost
//     dpnd = fl32(fl32(cost[lhs] + cost[rhs]) + fl32(kappa''))
// in vector lanes instead, from one more dense column dx[] the build
// gathers in double precision (SplitGatherFn), c = full_rank - r:
//
//   kappa_sm  (SplitBound::kSeparable): dx = aux, kappa'' = dx[r] + dx[c].
//     The lanes perform the scalar loop's IEEE operations on the same
//     operands (additions commute bitwise, and none can contract into an
//     FMA), so their dpnd is the scalar dpnd bit for bit.
//   kappa_dnl (SplitBound::kDnl): dx = card, kappa'' =
//     dx[r] * dx[c] / divisor + min(dx[r], dx[c]) / blocking_factor.
//     The vector lanes multiply by reciprocals instead of dividing and
//     widen each quotient into a bracket [lo, hi] of the scalar's
//     correctly rounded one (kDnlBracket* below), so they compute
//     dpnd_lo <= dpnd <= dpnd_hi, rounding to float being monotone; the
//     bracket is narrower than a float ulp, so almost always all three are
//     equal. The portable realization divides, exactly like the scalar.
//
// A lane survives iff dpnd (dpnd_lo) is below its threshold, and the
// threshold is a running one: each vector's lanes compare against
// min(best, the dpnd (dpnd_hi) of every lane of the earlier vectors), the
// portable body's lanes against min(best, every earlier lane's dpnd). Replay visits survivors in
// rank order, so when a lane replays the live best is at most that
// minimum: the threshold is >= the live best (conservative), the DP table
// and tie-breaks stay bit-identical, ties with best are dismissed like the
// scalar strict "<", and within a block the lanes behind an early good
// split are dismissed too. The Section 3.3 counters cannot stay exact (a
// dismissed lane may have passed the operand gate), so instrumented passes
// keep the operand mask; see DESIGN.md section 9.

/// The kappa_dnl bracket. With u = 2^-53 (double unit roundoff), a
/// reciprocal product fl(x * fl(1/d)) lies within (1 +- 2.01u) of x / d and
/// the scalar's fl(x / d) within (1 +- u), so they differ by under 3.1u
/// relatively. Scaling by (1 -+ 2^-50) = (1 -+ 8u) — rounded, at most
/// another u — moves the product below (above) the scalar quotient with
/// margin. The absolute 2^-1000 covers subnormal quotients, where relative
/// bounds fail but every rounding error is below 2^-1074. Error bound:
/// lo and hi are within 12u relatively plus 2^-999 absolutely of the
/// scalar kappa'', and lo <= kappa'' <= hi always (NaN stays NaN, +inf
/// stays +inf).
inline constexpr double kDnlBracketDown = 1.0 - 0x1p-50;
inline constexpr double kDnlBracketUp = 1.0 + 0x1p-50;
inline constexpr double kDnlBracketAbs = 0x1p-1000;

/// Builds the dense-rank compaction for subset `s` with popcount `k`:
/// idx[r] = the rank-r subset of s (successor order), dc[r] =
/// cost[idx[r]], for every r in [0, 2^k). idx and dc must each have 2^k
/// writable entries (SplitScratch below).
using SplitBuildFn = void (*)(const float* cost, std::uint64_t s, int k,
                              std::uint32_t* idx, float* dc);

/// Compacts a double column into dense rank order for the cost-model-aware
/// filter: dx[r] = col[idx[r]] for r in [0, total) (col = aux for kappa_sm,
/// card for kappa_dnl).
using SplitGatherFn = void (*)(const double* col, const std::uint32_t* idx,
                               std::uint32_t total, double* dx);

/// Filters dense ranks [r0, r0 + count), count in [1, kSplitFilterBlock]:
/// bit i of the returned mask is set iff
///     dc[r0 + i] + dc[full_rank - (r0 + i)] < best,
/// where full_rank = 2^k - 1 is the rank of s itself. The caller
/// guarantees 1 <= r0 and r0 + count <= full_rank, so every touched rank
/// and its complement index a proper nonempty subset. NaN never survives
/// (ordered compare), matching the scalar !(x < y) rejection idiom.
using SplitFilterFn = std::uint64_t (*)(const float* dc,
                                        std::uint32_t full_rank,
                                        std::uint32_t r0, int count,
                                        float best);

/// The kappa_sm filter over the same ranks: bit i is set iff
///     dpnd(r) = fl32(fl32(dc[r] + dc[c]) + fl32(dx[r] + dx[c]))
/// is below the running threshold (see above): best, lowered by the dpnd
/// of earlier lanes of this call. r = r0 + i, c = full_rank - r. Every
/// lane whose dpnd beats best and every earlier lane's dpnd is set; no
/// lane whose dpnd is >= best (or NaN) is.
using SplitFilterSmFn = std::uint64_t (*)(const float* dc, const double* dx,
                                          std::uint32_t full_rank,
                                          std::uint32_t r0, int count,
                                          float best);

/// The kappa_dnl filter, as SplitFilterSmFn with the kappa'' term
///     fl32(dx[r] * dx[c] / divisor + min(dx[r], dx[c]) / blocking_factor)
/// (divisor = K^2 (M - 1), DiskNestedLoopsCostModel::KappaDivisor()), up
/// to the bracket above: a lane with dpnd_lo < best may be set although
/// its exact dpnd ties best.
using SplitFilterDnlFn = std::uint64_t (*)(const float* dc, const double* dx,
                                           std::uint32_t full_rank,
                                           std::uint32_t r0, int count,
                                           float best, double divisor,
                                           double blocking_factor);

/// One resolved dispatch level: the build/filter kernels the best-split
/// loop runs. Obtained from GetSplitKernel (simd/dispatch.h); null kernel
/// pointer means "run the classic scalar loop".
struct SplitKernel {
  SplitBuildFn build;
  SplitFilterFn filter;
  SplitGatherFn gather;
  SplitFilterSmFn filter_sm;
  SplitFilterDnlFn filter_dnl;
};

/// Reusable dense-compaction scratch — one per running thread (the build
/// stage writes it, so workers of the rank-parallel driver cannot share).
/// Sized for the largest subset of an n-relation problem: 2^n ranks at 8
/// bytes each, 16 when the pass filters on the whole split cost, on top of
/// the DP table's 16-33 bytes per row.
struct SplitScratch {
  std::vector<std::uint32_t> idx;
  std::vector<float> dc;
  std::vector<double> dx;  ///< Empty unless the pass filters on dpnd.

  void EnsureCapacity(int n, bool with_dx) {
    const std::size_t rows = std::size_t{1} << n;
    if (idx.size() < rows) {
      idx.resize(rows);
      dc.resize(rows);
    }
    if (with_dx && dx.size() < rows) dx.resize(rows);
  }
};

// The three compiled realizations. The portable set is plain C++ (any
// target); the AVX2 / AVX-512 sets live in per-TU -mavx2 / -mavx512f
// translation units and forward to the portable bodies when the toolchain
// cannot target the instruction set (the *Compiled() probes below report
// which; the CPU side is checked at runtime by simd/dispatch.cc).
void SplitBuildDensePortable(const float* cost, std::uint64_t s, int k,
                             std::uint32_t* idx, float* dc);
void SplitGatherDensePortable(const double* col, const std::uint32_t* idx,
                              std::uint32_t total, double* dx);
std::uint64_t SplitFilterDensePortable(const float* dc,
                                       std::uint32_t full_rank,
                                       std::uint32_t r0, int count,
                                       float best);
std::uint64_t SplitFilterSmPortable(const float* dc, const double* dx,
                                    std::uint32_t full_rank,
                                    std::uint32_t r0, int count, float best);
std::uint64_t SplitFilterDnlPortable(const float* dc, const double* dx,
                                     std::uint32_t full_rank,
                                     std::uint32_t r0, int count, float best,
                                     double divisor, double blocking_factor);

void SplitBuildDenseAvx2(const float* cost, std::uint64_t s, int k,
                         std::uint32_t* idx, float* dc);
void SplitGatherDenseAvx2(const double* col, const std::uint32_t* idx,
                          std::uint32_t total, double* dx);
std::uint64_t SplitFilterDenseAvx2(const float* dc, std::uint32_t full_rank,
                                   std::uint32_t r0, int count, float best);
std::uint64_t SplitFilterSmAvx2(const float* dc, const double* dx,
                                std::uint32_t full_rank, std::uint32_t r0,
                                int count, float best);
std::uint64_t SplitFilterDnlAvx2(const float* dc, const double* dx,
                                 std::uint32_t full_rank, std::uint32_t r0,
                                 int count, float best, double divisor,
                                 double blocking_factor);

void SplitBuildDenseAvx512(const float* cost, std::uint64_t s, int k,
                           std::uint32_t* idx, float* dc);
void SplitGatherDenseAvx512(const double* col, const std::uint32_t* idx,
                            std::uint32_t total, double* dx);
std::uint64_t SplitFilterDenseAvx512(const float* dc,
                                     std::uint32_t full_rank,
                                     std::uint32_t r0, int count,
                                     float best);
std::uint64_t SplitFilterSmAvx512(const float* dc, const double* dx,
                                  std::uint32_t full_rank, std::uint32_t r0,
                                  int count, float best);
std::uint64_t SplitFilterDnlAvx512(const float* dc, const double* dx,
                                   std::uint32_t full_rank, std::uint32_t r0,
                                   int count, float best, double divisor,
                                   double blocking_factor);

/// Whether the AVX2 / AVX-512 kernels above were actually compiled with
/// their instruction sets (compile-time capability; runtime dispatch also
/// requires the CPU to report the feature — see simd/dispatch.h).
bool SplitFilterAvx2Compiled();
bool SplitFilterAvx512Compiled();

}  // namespace blitz

#endif  // BLITZ_SIMD_SPLIT_FILTER_H_
