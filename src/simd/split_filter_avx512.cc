// Compiled with -mavx512f when the toolchain supports it (see
// src/simd/CMakeLists.txt); only invoked after the runtime dispatcher has
// confirmed the CPU reports AVX-512F.

#include "simd/split_filter.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace blitz {

#if defined(__AVX512F__)

bool SplitFilterAvx512Compiled() { return true; }

void SplitBuildDenseAvx512(const float* cost, std::uint64_t s, int k,
                           std::uint32_t* idx, float* dc) {
  // Doubling construction of the rank -> subset map (see the portable
  // kernel for the invariant): scalar up to m = 16, then contiguous
  // 16-lane load/or/store sweeps per level.
  idx[0] = 0;
  std::uint32_t m = 1;
  std::uint64_t bits = s;
  while (bits != 0 && m < 16) {
    const std::uint32_t bit = static_cast<std::uint32_t>(bits & (~bits + 1));
    bits &= bits - 1;
    for (std::uint32_t r = 0; r < m; ++r) idx[m + r] = idx[r] | bit;
    m <<= 1;
  }
  while (bits != 0) {
    const std::uint32_t bit = static_cast<std::uint32_t>(bits & (~bits + 1));
    bits &= bits - 1;
    const __m512i vbit = _mm512_set1_epi32(static_cast<int>(bit));
    for (std::uint32_t r = 0; r < m; r += 16) {
      const __m512i v = _mm512_loadu_si512(idx + r);
      _mm512_storeu_si512(idx + m + r, _mm512_or_si512(v, vbit));
    }
    m <<= 1;
  }
  // Compact the cost column into dense rank order: one hardware-gather
  // pass with a line-granular prefetch hint a few groups ahead.
  const std::uint32_t total = m;  // == 2^k
  std::uint32_t r = 0;
  for (; r + 16 <= total; r += 16) {
    if (r + 64 < total) _mm_prefetch(
        reinterpret_cast<const char*>(cost + idx[r + 64]), _MM_HINT_T1);
    const __m512i vi = _mm512_loadu_si512(idx + r);
    // Masked form with an explicit zero pass-through: every lane is
    // gathered, and no lane reads an undefined source register.
    _mm512_storeu_ps(dc + r, _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                                      0xFFFF, vi, cost, 4));
  }
  for (; r < total; ++r) dc[r] = cost[idx[r]];
  (void)k;
}

std::uint64_t SplitFilterDenseAvx512(const float* dc,
                                     std::uint32_t full_rank,
                                     std::uint32_t r0, int count,
                                     float best) {
  if (r0 + static_cast<std::uint32_t>(kSplitFilterBlock) <= full_rank) {
    _mm_prefetch(reinterpret_cast<const char*>(dc + r0 + kSplitFilterBlock),
                 _MM_HINT_T0);
    _mm_prefetch(
        reinterpret_cast<const char*>(
            dc + (full_rank - r0 - kSplitFilterBlock)),
        _MM_HINT_T0);
  }
  const __m512 vbest = _mm512_set1_ps(best);
  const __m512i vrev = _mm512_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6,
                                         5, 4, 3, 2, 1, 0);
  std::uint64_t mask = 0;
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    // Lanes j = 0..15 need dc[full_rank - (r + j)]: one contiguous load
    // at full_rank - r - 15 (every lane's complement is a proper rank in
    // [1, full_rank - 1]), then a lane reversal.
    const __m512 fwd = _mm512_loadu_ps(dc + r);
    const __m512 rev_raw = _mm512_loadu_ps(dc + (full_rank - r - 15));
    const __m512 rev =
        _mm512_mask_permutexvar_ps(rev_raw, 0xFFFF, vrev, rev_raw);
    const __mmask16 lt =
        _mm512_cmp_ps_mask(_mm512_add_ps(fwd, rev), vbest, _CMP_LT_OQ);
    mask |= static_cast<std::uint64_t>(lt) << i;
  }
  for (; i < count; ++i) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    mask |= static_cast<std::uint64_t>(dc[r] + dc[full_rank - r] < best)
            << i;
  }
  return mask;
}

#else  // !defined(__AVX512F__)

bool SplitFilterAvx512Compiled() { return false; }

void SplitBuildDenseAvx512(const float* cost, std::uint64_t s, int k,
                           std::uint32_t* idx, float* dc) {
  SplitBuildDensePortable(cost, s, k, idx, dc);
}

std::uint64_t SplitFilterDenseAvx512(const float* dc,
                                     std::uint32_t full_rank,
                                     std::uint32_t r0, int count,
                                     float best) {
  return SplitFilterDensePortable(dc, full_rank, r0, count, best);
}

#endif  // defined(__AVX512F__)

}  // namespace blitz
