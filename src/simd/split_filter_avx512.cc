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

void SplitGatherDenseAvx512(const double* col, const std::uint32_t* idx,
                            std::uint32_t total, double* dx) {
  std::uint32_t r = 0;
  for (; r + 8 <= total; r += 8) {
    if (r + 64 < total) _mm_prefetch(
        reinterpret_cast<const char*>(col + idx[r + 64]), _MM_HINT_T1);
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + r));
    _mm512_storeu_pd(dx + r, _mm512_mask_i32gather_pd(_mm512_setzero_pd(),
                                                      0xFF, vi, col, 8));
  }
  for (; r < total; ++r) dx[r] = col[idx[r]];
}

namespace {

// Masked forms with an explicit source throughout this file: GCC 12 flags
// the unmasked intrinsics' undefined pass-through as maybe-uninitialized.

/// Reverses the 8 doubles of v.
__m512d Reverse8(__m512d v) {
  const __m512i vrev = _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  return _mm512_mask_permutexvar_pd(v, 0xFF, vrev, v);
}

/// Rounds lanes 0-7 (from `lo`) and 8-15 (from `hi`) to float.
__m512 ToFloat16(__m512d lo, __m512d hi) {
  const __m512d zero = _mm512_setzero_pd();
  const __m256 lo_ps = _mm512_mask_cvtpd_ps(_mm256_setzero_ps(), 0xFF, lo);
  const __m256 hi_ps = _mm512_mask_cvtpd_ps(_mm256_setzero_ps(), 0xFF, hi);
  const __m512d low =
      _mm512_mask_insertf64x4(zero, 0xFF, zero, _mm256_castps_pd(lo_ps), 0);
  return _mm512_castpd_ps(
      _mm512_mask_insertf64x4(low, 0xFF, low, _mm256_castps_pd(hi_ps), 1));
}

/// The minimum of the 16 lanes of v, broadcast to every lane.
__m512 MinBroadcast(__m512 v) {
  v = _mm512_mask_min_ps(
      v, 0xFFFF, v, _mm512_mask_shuffle_f32x4(v, 0xFFFF, v, v, 0x4E));
  v = _mm512_mask_min_ps(
      v, 0xFFFF, v, _mm512_mask_shuffle_f32x4(v, 0xFFFF, v, v, 0xB1));
  v = _mm512_mask_min_ps(v, 0xFFFF, v, _mm512_mask_permute_ps(v, 0xFFFF, v,
                                                               0x4E));
  return _mm512_mask_min_ps(v, 0xFFFF, v,
                            _mm512_mask_permute_ps(v, 0xFFFF, v, 0xB1));
}

/// The whole-cost filter body shared by kappa_sm and kappa_dnl: sixteen
/// lanes per step. `kappa2(l, r, &lo, &hi)` brackets the scalar loop's
/// double kappa'' of eight lanes (lo <= kappa'' <= hi; equal when the lanes
/// compute it exactly), so dpnd_lo <= dpnd <= dpnd_hi. A lane survives iff
/// dpnd_lo is below the threshold: best, lowered by the dpnd_hi of every
/// lane of the earlier steps (simd/split_filter.h). The lane-wise running
/// minimum vmin is the only loop-carried chain; its horizontal minimum
/// feeds the next step's compare off that chain.
template <typename Kappa2, typename TailFn>
std::uint64_t FilterWholeCost(const float* dc, const double* dx,
                              std::uint32_t full_rank, std::uint32_t r0,
                              int count, float best, Kappa2 kappa2,
                              TailFn tail) {
  const __m512i vrev = _mm512_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6,
                                         5, 4, 3, 2, 1, 0);
  __m512 vmin = _mm512_set1_ps(best);
  std::uint64_t mask = 0;
  int i = 0;
  for (; i + 16 <= count; i += 16) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    // Lane j's complement is rank full_rank - r - j: the 16 floats at
    // c = full_rank - r - 15 reversed, and for the doubles the 8 at c + 8
    // (lanes 0-7) and the 8 at c (lanes 8-15), each reversed.
    const std::uint32_t c = full_rank - r - 15;
    const __m512 rev_raw = _mm512_loadu_ps(dc + c);
    const __m512 oprnd = _mm512_add_ps(
        _mm512_loadu_ps(dc + r),
        _mm512_mask_permutexvar_ps(rev_raw, 0xFFFF, vrev, rev_raw));
    __m512d lo0, hi0, lo1, hi1;
    kappa2(_mm512_loadu_pd(dx + r), Reverse8(_mm512_loadu_pd(dx + c + 8)),
           &lo0, &hi0);
    kappa2(_mm512_loadu_pd(dx + r + 8), Reverse8(_mm512_loadu_pd(dx + c)),
           &lo1, &hi1);
    const __m512 dpnd_lo = _mm512_add_ps(oprnd, ToFloat16(lo0, lo1));
    const __m512 dpnd_hi = _mm512_add_ps(oprnd, ToFloat16(hi0, hi1));
    // Ordered compare: NaN lanes never survive. min(dpnd, thr) returns
    // thr for a NaN dpnd, so NaN never lowers a threshold either.
    const __mmask16 lt =
        _mm512_cmp_ps_mask(dpnd_lo, MinBroadcast(vmin), _CMP_LT_OQ);
    vmin = _mm512_mask_min_ps(vmin, 0xFFFF, dpnd_hi, vmin);
    mask |= static_cast<std::uint64_t>(lt) << i;
  }
  if (i < count) {
    mask |= tail(r0 + static_cast<std::uint32_t>(i), count - i,
                 _mm512_cvtss_f32(MinBroadcast(vmin)))
            << i;
  }
  return mask;
}

}  // namespace

std::uint64_t SplitFilterSmAvx512(const float* dc, const double* dx,
                                  std::uint32_t full_rank, std::uint32_t r0,
                                  int count, float best) {
  return FilterWholeCost(
      dc, dx, full_rank, r0, count, best,
      [](__m512d l, __m512d r, __m512d* lo, __m512d* hi) {
        *lo = *hi = _mm512_add_pd(l, r);  // Exact: the scalar's one add.
      },
      [&](std::uint32_t tail_r0, int tail_count, float tail_best) {
        return SplitFilterSmPortable(dc, dx, full_rank, tail_r0, tail_count,
                                     tail_best);
      });
}

std::uint64_t SplitFilterDnlAvx512(const float* dc, const double* dx,
                                   std::uint32_t full_rank, std::uint32_t r0,
                                   int count, float best, double divisor,
                                   double blocking_factor) {
  const __m512d vinv_divisor = _mm512_set1_pd(1.0 / divisor);
  const __m512d vinv_blocking = _mm512_set1_pd(1.0 / blocking_factor);
  const __m512d vdown = _mm512_set1_pd(kDnlBracketDown);
  const __m512d vup = _mm512_set1_pd(kDnlBracketUp);
  const __m512d vabs = _mm512_set1_pd(kDnlBracketAbs);
  return FilterWholeCost(
      dc, dx, full_rank, r0, count, best,
      [&](__m512d l, __m512d r, __m512d* lo, __m512d* hi) {
        // Reciprocal products instead of the scalar's two divisions, each
        // widened to a bracket of the correctly rounded quotient.
        const __m512d q = _mm512_mul_pd(_mm512_mul_pd(l, r), vinv_divisor);
        const __m512d t =
            _mm512_mul_pd(_mm512_mask_min_pd(l, 0xFF, l, r), vinv_blocking);
        *lo = _mm512_add_pd(_mm512_fmsub_pd(q, vdown, vabs),
                            _mm512_fmsub_pd(t, vdown, vabs));
        *hi = _mm512_add_pd(_mm512_fmadd_pd(q, vup, vabs),
                            _mm512_fmadd_pd(t, vup, vabs));
      },
      [&](std::uint32_t tail_r0, int tail_count, float tail_best) {
        return SplitFilterDnlPortable(dc, dx, full_rank, tail_r0, tail_count,
                                      tail_best, divisor, blocking_factor);
      });
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

void SplitGatherDenseAvx512(const double* col, const std::uint32_t* idx,
                            std::uint32_t total, double* dx) {
  SplitGatherDensePortable(col, idx, total, dx);
}

std::uint64_t SplitFilterSmAvx512(const float* dc, const double* dx,
                                  std::uint32_t full_rank, std::uint32_t r0,
                                  int count, float best) {
  return SplitFilterSmPortable(dc, dx, full_rank, r0, count, best);
}

std::uint64_t SplitFilterDnlAvx512(const float* dc, const double* dx,
                                   std::uint32_t full_rank, std::uint32_t r0,
                                   int count, float best, double divisor,
                                   double blocking_factor) {
  return SplitFilterDnlPortable(dc, dx, full_rank, r0, count, best, divisor,
                                blocking_factor);
}

#endif  // defined(__AVX512F__)

}  // namespace blitz
