// Compiled with -mavx2 when the toolchain supports it (see
// src/simd/CMakeLists.txt); the kernels are only ever invoked after the
// runtime dispatcher has confirmed the CPU reports AVX2, so emitting VEX
// instructions in this one TU is safe even on a baseline build.

#include "simd/split_filter.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace blitz {

#if defined(__AVX2__)

bool SplitFilterAvx2Compiled() { return true; }

void SplitBuildDenseAvx2(const float* cost, std::uint64_t s, int k,
                         std::uint32_t* idx, float* dc) {
  // Doubling construction of the rank -> subset map (see the portable
  // kernel for the invariant). The first three levels are scalar; from
  // m = 8 on, each level is a contiguous 8-lane load/or/store sweep.
  idx[0] = 0;
  std::uint32_t m = 1;
  std::uint64_t bits = s;
  while (bits != 0 && m < 8) {
    const std::uint32_t bit = static_cast<std::uint32_t>(bits & (~bits + 1));
    bits &= bits - 1;
    for (std::uint32_t r = 0; r < m; ++r) idx[m + r] = idx[r] | bit;
    m <<= 1;
  }
  while (bits != 0) {
    const std::uint32_t bit = static_cast<std::uint32_t>(bits & (~bits + 1));
    bits &= bits - 1;
    const __m256i vbit = _mm256_set1_epi32(static_cast<int>(bit));
    for (std::uint32_t r = 0; r < m; r += 8) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(idx + r));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + m + r),
                          _mm256_or_si256(v, vbit));
    }
    m <<= 1;
  }
  // Compact the cost column into dense rank order: one hardware-gather
  // pass, the only scattered reads of the batched path. Prefetch the
  // gather targets a few groups ahead (one line hint per group).
  const std::uint32_t total = m;  // == 2^k
  std::uint32_t r = 0;
  for (; r + 8 <= total; r += 8) {
    if (r + 64 < total) _mm_prefetch(
        reinterpret_cast<const char*>(cost + idx[r + 64]), _MM_HINT_T1);
    const __m256i vi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + r));
    _mm256_storeu_ps(dc + r, _mm256_i32gather_ps(cost, vi, 4));
  }
  for (; r < total; ++r) dc[r] = cost[idx[r]];
  (void)k;
}

std::uint64_t SplitFilterDenseAvx2(const float* dc, std::uint32_t full_rank,
                                   std::uint32_t r0, int count, float best) {
  // Next block's forward stream and descending rhs stream (the reversed
  // half of dc); the descending one defeats hardware prefetchers.
  if (r0 + static_cast<std::uint32_t>(kSplitFilterBlock) <= full_rank) {
    _mm_prefetch(reinterpret_cast<const char*>(dc + r0 + kSplitFilterBlock),
                 _MM_HINT_T0);
    _mm_prefetch(
        reinterpret_cast<const char*>(
            dc + (full_rank - r0 - kSplitFilterBlock)),
        _MM_HINT_T0);
  }
  const __m256 vbest = _mm256_set1_ps(best);
  const __m256i vrev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  std::uint64_t mask = 0;
  int i = 0;
  for (; i + 8 <= count; i += 8) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    // Lanes j = 0..7 need dc[full_rank - (r + j)]: one contiguous load at
    // full_rank - r - 7 (in bounds: every lane's complement is a proper
    // rank in [1, full_rank - 1]), then a lane reversal.
    const __m256 fwd = _mm256_loadu_ps(dc + r);
    const __m256 rev_raw = _mm256_loadu_ps(dc + (full_rank - r - 7));
    const __m256 rev = _mm256_permutevar8x32_ps(rev_raw, vrev);
    const __m256 sum = _mm256_add_ps(fwd, rev);
    // Ordered compare: NaN lanes never survive, matching the scalar
    // !(x < y) idiom.
    const __m256 lt = _mm256_cmp_ps(sum, vbest, _CMP_LT_OQ);
    mask |= static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(_mm256_movemask_ps(lt)))
            << i;
  }
  for (; i < count; ++i) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    mask |= static_cast<std::uint64_t>(dc[r] + dc[full_rank - r] < best)
            << i;
  }
  return mask;
}

void SplitGatherDenseAvx2(const double* col, const std::uint32_t* idx,
                          std::uint32_t total, double* dx) {
  // Masked gather with an explicit zero source and all-ones mask: GCC 12
  // flags the unmasked form's undefined pass-through as maybe-uninitialized.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::uint32_t r = 0;
  for (; r + 4 <= total; r += 4) {
    if (r + 64 < total) _mm_prefetch(
        reinterpret_cast<const char*>(col + idx[r + 64]), _MM_HINT_T1);
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + r));
    _mm256_storeu_pd(dx + r, _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                                      col, vi, all, 8));
  }
  for (; r < total; ++r) dx[r] = col[idx[r]];
}

namespace {

/// The minimum of the 8 lanes of v, broadcast to every lane.
__m256 MinBroadcast(__m256 v) {
  v = _mm256_min_ps(v, _mm256_permute2f128_ps(v, v, 0x01));
  v = _mm256_min_ps(v, _mm256_permute_ps(v, 0x4E));
  return _mm256_min_ps(v, _mm256_permute_ps(v, 0xB1));
}

/// The whole-cost filter body shared by kappa_sm and kappa_dnl: eight
/// lanes per step. `kappa2(l, r, &lo, &hi)` brackets the scalar loop's
/// double kappa'' of four lanes (lo <= kappa'' <= hi; equal when the lanes
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
  const __m256i vrev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  __m256 vmin = _mm256_set1_ps(best);
  std::uint64_t mask = 0;
  int i = 0;
  for (; i + 8 <= count; i += 8) {
    const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
    // Lane j's complement is rank full_rank - r - j: the 8 floats at
    // c = full_rank - r - 7 reversed, and for the doubles the 4 at c + 4
    // (lanes 0-3) and the 4 at c (lanes 4-7), each reversed.
    const std::uint32_t c = full_rank - r - 7;
    const __m256 oprnd = _mm256_add_ps(
        _mm256_loadu_ps(dc + r),
        _mm256_permutevar8x32_ps(_mm256_loadu_ps(dc + c), vrev));
    __m256d lo0, hi0, lo1, hi1;
    kappa2(_mm256_loadu_pd(dx + r),
           _mm256_permute4x64_pd(_mm256_loadu_pd(dx + c + 4), 0x1B), &lo0,
           &hi0);
    kappa2(_mm256_loadu_pd(dx + r + 4),
           _mm256_permute4x64_pd(_mm256_loadu_pd(dx + c), 0x1B), &lo1,
           &hi1);
    const __m256 dpnd_lo = _mm256_add_ps(
        oprnd, _mm256_set_m128(_mm256_cvtpd_ps(lo1), _mm256_cvtpd_ps(lo0)));
    const __m256 dpnd_hi = _mm256_add_ps(
        oprnd, _mm256_set_m128(_mm256_cvtpd_ps(hi1), _mm256_cvtpd_ps(hi0)));
    // Ordered compare: NaN lanes never survive. min(dpnd, thr) returns
    // thr for a NaN dpnd, so NaN never lowers a threshold either.
    const __m256 lt = _mm256_cmp_ps(dpnd_lo, MinBroadcast(vmin), _CMP_LT_OQ);
    vmin = _mm256_min_ps(dpnd_hi, vmin);
    mask |= static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(_mm256_movemask_ps(lt)))
            << i;
  }
  if (i < count) {
    mask |= tail(r0 + static_cast<std::uint32_t>(i), count - i,
                 _mm256_cvtss_f32(MinBroadcast(vmin)))
            << i;
  }
  return mask;
}

}  // namespace

std::uint64_t SplitFilterSmAvx2(const float* dc, const double* dx,
                                std::uint32_t full_rank, std::uint32_t r0,
                                int count, float best) {
  return FilterWholeCost(
      dc, dx, full_rank, r0, count, best,
      [](__m256d l, __m256d r, __m256d* lo, __m256d* hi) {
        *lo = *hi = _mm256_add_pd(l, r);  // Exact: the scalar's one add.
      },
      [&](std::uint32_t tail_r0, int tail_count, float tail_best) {
        return SplitFilterSmPortable(dc, dx, full_rank, tail_r0, tail_count,
                                     tail_best);
      });
}

std::uint64_t SplitFilterDnlAvx2(const float* dc, const double* dx,
                                 std::uint32_t full_rank, std::uint32_t r0,
                                 int count, float best, double divisor,
                                 double blocking_factor) {
  const __m256d vinv_divisor = _mm256_set1_pd(1.0 / divisor);
  const __m256d vinv_blocking = _mm256_set1_pd(1.0 / blocking_factor);
  const __m256d vdown = _mm256_set1_pd(kDnlBracketDown);
  const __m256d vup = _mm256_set1_pd(kDnlBracketUp);
  const __m256d vabs = _mm256_set1_pd(kDnlBracketAbs);
  return FilterWholeCost(
      dc, dx, full_rank, r0, count, best,
      [&](__m256d l, __m256d r, __m256d* lo, __m256d* hi) {
        // Reciprocal products instead of the scalar's two divisions, each
        // widened to a bracket of the correctly rounded quotient (no FMA in
        // this TU: the separate roundings stay inside the bracket).
        const __m256d q = _mm256_mul_pd(_mm256_mul_pd(l, r), vinv_divisor);
        const __m256d t = _mm256_mul_pd(_mm256_min_pd(l, r), vinv_blocking);
        *lo = _mm256_add_pd(_mm256_sub_pd(_mm256_mul_pd(q, vdown), vabs),
                            _mm256_sub_pd(_mm256_mul_pd(t, vdown), vabs));
        *hi = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(q, vup), vabs),
                            _mm256_add_pd(_mm256_mul_pd(t, vup), vabs));
      },
      [&](std::uint32_t tail_r0, int tail_count, float tail_best) {
        return SplitFilterDnlPortable(dc, dx, full_rank, tail_r0, tail_count,
                                      tail_best, divisor, blocking_factor);
      });
}

#else  // !defined(__AVX2__)

bool SplitFilterAvx2Compiled() { return false; }

void SplitBuildDenseAvx2(const float* cost, std::uint64_t s, int k,
                         std::uint32_t* idx, float* dc) {
  SplitBuildDensePortable(cost, s, k, idx, dc);
}

std::uint64_t SplitFilterDenseAvx2(const float* dc, std::uint32_t full_rank,
                                   std::uint32_t r0, int count, float best) {
  return SplitFilterDensePortable(dc, full_rank, r0, count, best);
}

void SplitGatherDenseAvx2(const double* col, const std::uint32_t* idx,
                          std::uint32_t total, double* dx) {
  SplitGatherDensePortable(col, idx, total, dx);
}

std::uint64_t SplitFilterSmAvx2(const float* dc, const double* dx,
                                std::uint32_t full_rank, std::uint32_t r0,
                                int count, float best) {
  return SplitFilterSmPortable(dc, dx, full_rank, r0, count, best);
}

std::uint64_t SplitFilterDnlAvx2(const float* dc, const double* dx,
                                 std::uint32_t full_rank, std::uint32_t r0,
                                 int count, float best, double divisor,
                                 double blocking_factor) {
  return SplitFilterDnlPortable(dc, dx, full_rank, r0, count, best, divisor,
                                blocking_factor);
}

#endif  // defined(__AVX2__)

}  // namespace blitz
