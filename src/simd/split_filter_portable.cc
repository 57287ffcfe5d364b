#include "simd/split_filter.h"

#include <algorithm>

#if defined(__GNUC__) || defined(__clang__)
#define BLITZ_SIMD_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define BLITZ_SIMD_PREFETCH(addr) ((void)0)
#endif

namespace blitz {

// The portable realization of the dense-compaction kernel: no intrinsics,
// plain loops a mainstream compiler autovectorizes with baseline flags.
// Kept in its own TU (compiled with the project's default flags only) so
// it is a faithful "what the hardware gives you without target features"
// reference point for the dispatch matrix.

void SplitBuildDensePortable(const float* cost, std::uint64_t s, int k,
                             std::uint32_t* idx, float* dc) {
  // Doubling construction of the rank -> subset map: after the t lowest
  // set bits of s are processed, idx[0..2^t) enumerate the subsets of
  // those bits in counting (= successor) order; OR-ing in the next bit
  // appends the upper half. Contiguous reads and writes only — unlike the
  // successor recurrence there is no loop-carried dependency chain.
  idx[0] = 0;
  std::uint32_t m = 1;
  for (std::uint64_t bits = s; bits != 0; bits &= bits - 1) {
    const std::uint32_t bit = static_cast<std::uint32_t>(bits & (~bits + 1));
    for (std::uint32_t r = 0; r < m; ++r) idx[m + r] = idx[r] | bit;
    m <<= 1;
  }
  // One gather pass compacts the cost column into dense rank order; these
  // scattered reads are the only non-contiguous accesses of the whole
  // batched path. Prefetch a short distance ahead — the target addresses
  // are already materialized in idx.
  constexpr std::uint32_t kAhead = 16;
  const std::uint32_t total = m;  // == 2^k
  for (std::uint32_t r = 0; r < total; ++r) {
    if (r + kAhead < total) BLITZ_SIMD_PREFETCH(cost + idx[r + kAhead]);
    dc[r] = cost[idx[r]];
  }
  (void)k;
}

std::uint64_t SplitFilterDensePortable(const float* dc,
                                       std::uint32_t full_rank,
                                       std::uint32_t r0, int count,
                                       float best) {
  // The next block's forward stream and descending rhs stream; hardware
  // prefetchers handle the former, rarely the latter.
  if (r0 + static_cast<std::uint32_t>(kSplitFilterBlock) <= full_rank) {
    BLITZ_SIMD_PREFETCH(dc + r0 + kSplitFilterBlock);
    BLITZ_SIMD_PREFETCH(dc + (full_rank - r0 - kSplitFilterBlock));
  }
  std::uint64_t mask = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    mask |= static_cast<std::uint64_t>(dc[r] + dc[full_rank - r] < best)
            << i;
  }
  return mask;
}

void SplitGatherDensePortable(const double* col, const std::uint32_t* idx,
                              std::uint32_t total, double* dx) {
  constexpr std::uint32_t kAhead = 16;
  for (std::uint32_t r = 0; r < total; ++r) {
    if (r + kAhead < total) BLITZ_SIMD_PREFETCH(col + idx[r + kAhead]);
    dx[r] = col[idx[r]];
  }
}

// The portable whole-cost filters run the threshold lane by lane: each
// lane compares against min(best, every earlier lane's dpnd), so their
// survivors are exactly the splits the replay will take. The expressions
// are the scalar loop's, operation for operation (simd/split_filter.h).

std::uint64_t SplitFilterSmPortable(const float* dc, const double* dx,
                                    std::uint32_t full_rank,
                                    std::uint32_t r0, int count,
                                    float best) {
  std::uint64_t mask = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    const std::uint32_t c = full_rank - r;
    const float oprnd = dc[r] + dc[c];
    const float dpnd = oprnd + static_cast<float>(dx[r] + dx[c]);
    if (dpnd < best) {
      best = dpnd;
      mask |= std::uint64_t{1} << i;
    }
  }
  return mask;
}

std::uint64_t SplitFilterDnlPortable(const float* dc, const double* dx,
                                     std::uint32_t full_rank,
                                     std::uint32_t r0, int count, float best,
                                     double divisor,
                                     double blocking_factor) {
  std::uint64_t mask = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    const std::uint32_t c = full_rank - r;
    const float oprnd = dc[r] + dc[c];
    const double kappa2 =
        dx[r] * dx[c] / divisor + std::min(dx[r], dx[c]) / blocking_factor;
    const float dpnd = oprnd + static_cast<float>(kappa2);
    if (dpnd < best) {
      best = dpnd;
      mask |= std::uint64_t{1} << i;
    }
  }
  return mask;
}

}  // namespace blitz
