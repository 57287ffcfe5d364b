// Dispatch-layer contract (src/simd/dispatch.h): level parsing/naming,
// BLITZ_SIMD environment override, clamping of forced requests to what the
// binary + CPU can run, the filter lookup, and direct mask-level checks of
// each compiled kernel against the portable reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/dp_table.h"
#include "cost/cost_model.h"
#include "simd/dispatch.h"
#include "simd/split_filter.h"
#include "test_util.h"

namespace blitz {
namespace {

using testing::ScopedSimdEnv;

TEST(SimdDispatchTest, ParseNameRoundTrip) {
  for (const SimdLevel level :
       {SimdLevel::kAuto, SimdLevel::kScalar, SimdLevel::kBlock,
        SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    Result<SimdLevel> parsed = ParseSimdLevel(SimdLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(ParseSimdLevel("sse9").ok());
  EXPECT_FALSE(ParseSimdLevel("").ok());
  EXPECT_FALSE(ParseSimdLevel("AVX2").ok());  // Names are lowercase.
  EXPECT_EQ(ParseSimdLevel("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimdDispatchTest, ResolveNeverReturnsAuto) {
  ScopedSimdEnv env(nullptr);
  for (const SimdLevel level :
       {SimdLevel::kAuto, SimdLevel::kScalar, SimdLevel::kBlock,
        SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    EXPECT_NE(ResolveSimdLevel(level), SimdLevel::kAuto);
  }
}

TEST(SimdDispatchTest, ExplicitLevelsResolveToThemselvesOrClampDown) {
  ScopedSimdEnv env(nullptr);
  // Scalar and block have no instruction-set requirement: always honored.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kBlock), SimdLevel::kBlock);
  // AVX requests resolve to themselves where supported and clamp to the
  // next level down otherwise — never upward, never to kAuto.
  const SimdLevel ceiling = DetectCpuSimdLevel();
  const SimdLevel avx2 = ResolveSimdLevel(SimdLevel::kAvx2);
  EXPECT_EQ(avx2, ceiling == SimdLevel::kScalar ? SimdLevel::kScalar
                                                : SimdLevel::kAvx2);
  const SimdLevel avx512 = ResolveSimdLevel(SimdLevel::kAvx512);
  if (ceiling == SimdLevel::kAvx512) {
    EXPECT_EQ(avx512, SimdLevel::kAvx512);
  } else {
    EXPECT_EQ(avx512, avx2);  // One step down: 512 -> 2 -> scalar.
  }
}

TEST(SimdDispatchTest, AutoHonorsEnvironmentOverride) {
  {
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), SimdLevel::kScalar);
  }
  {
    ScopedSimdEnv env("block");
    EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), SimdLevel::kBlock);
  }
  {
    // An unparsable override is ignored, not fatal: auto falls through to
    // the cpuid probe.
    ScopedSimdEnv env("warpdrive");
    EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), DetectCpuSimdLevel());
  }
  {
    ScopedSimdEnv env(nullptr);
    EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), DetectCpuSimdLevel());
  }
}

TEST(SimdDispatchTest, EnvironmentDoesNotOverrideExplicitRequest) {
  ScopedSimdEnv env("block");
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
}

TEST(SimdDispatchTest, DetailedResolutionReportsProvenance) {
  {
    // Pure cpuid auto: the only case flagged from_auto (and thus the only
    // one subject to the optimizer's per-model refinement).
    ScopedSimdEnv env(nullptr);
    const SimdResolution res = ResolveSimdLevelDetailed(SimdLevel::kAuto);
    EXPECT_TRUE(res.from_auto);
    EXPECT_EQ(res.level, DetectCpuSimdLevel());
  }
  {
    // A BLITZ_SIMD override is an explicit choice, not auto.
    ScopedSimdEnv env("scalar");
    const SimdResolution res = ResolveSimdLevelDetailed(SimdLevel::kAuto);
    EXPECT_FALSE(res.from_auto);
    EXPECT_EQ(res.level, SimdLevel::kScalar);
  }
  {
    ScopedSimdEnv env(nullptr);
    const SimdResolution res = ResolveSimdLevelDetailed(SimdLevel::kBlock);
    EXPECT_FALSE(res.from_auto);
    EXPECT_EQ(res.level, SimdLevel::kBlock);
  }
  {
    // An unparsable override falls through to the probe and stays auto.
    ScopedSimdEnv env("warpdrive");
    EXPECT_TRUE(ResolveSimdLevelDetailed(SimdLevel::kAuto).from_auto);
  }
}

TEST(SimdDispatchTest, KernelLookupMatchesLevel) {
  // kScalar means "run the classic loop": no kernel at all.
  EXPECT_EQ(GetSplitKernel(SimdLevel::kScalar), nullptr);
  EXPECT_EQ(GetSplitKernel(SimdLevel::kAuto), nullptr);
  const SplitKernel* portable = GetSplitKernel(SimdLevel::kBlock);
  ASSERT_NE(portable, nullptr);
  EXPECT_EQ(portable->build, &SplitBuildDensePortable);
  EXPECT_EQ(portable->filter, &SplitFilterDensePortable);
  EXPECT_EQ(portable->gather, &SplitGatherDensePortable);
  EXPECT_EQ(portable->filter_sm, &SplitFilterSmPortable);
  EXPECT_EQ(portable->filter_dnl, &SplitFilterDnlPortable);
  const SplitKernel* avx2 = GetSplitKernel(SimdLevel::kAvx2);
  ASSERT_NE(avx2, nullptr);
  EXPECT_EQ(avx2->build, &SplitBuildDenseAvx2);
  EXPECT_EQ(avx2->filter, &SplitFilterDenseAvx2);
  EXPECT_EQ(avx2->gather, &SplitGatherDenseAvx2);
  EXPECT_EQ(avx2->filter_sm, &SplitFilterSmAvx2);
  EXPECT_EQ(avx2->filter_dnl, &SplitFilterDnlAvx2);
  const SplitKernel* avx512 = GetSplitKernel(SimdLevel::kAvx512);
  ASSERT_NE(avx512, nullptr);
  EXPECT_EQ(avx512->build, &SplitBuildDenseAvx512);
  EXPECT_EQ(avx512->filter, &SplitFilterDenseAvx512);
  EXPECT_EQ(avx512->gather, &SplitGatherDenseAvx512);
  EXPECT_EQ(avx512->filter_sm, &SplitFilterSmAvx512);
  EXPECT_EQ(avx512->filter_dnl, &SplitFilterDnlAvx512);
}

/// Skips a test when a kernel level's instruction set is unavailable
/// (either not compiled in or not reported by the CPU); the kBlock level
/// is always runnable.
bool LevelRunnable(SimdLevel level) {
  if (level == SimdLevel::kBlock) return true;
  return ResolveSimdLevel(level) == level;
}

/// Builds a deterministic cost column over all subsets of kN relations,
/// then checks the build stage's rank -> subset map against the successor
/// enumeration and the filter stage's survivor mask lane-by-lane against
/// the scalar predicate cost[lhs] + cost[s ^ lhs] < best.
class KernelDenseTest : public ::testing::Test {
 protected:
  static constexpr int kN = 9;

  void SetUp() override {
    cost_.resize(std::size_t{1} << kN);
    for (std::size_t i = 0; i < cost_.size(); ++i) {
      // A spread of magnitudes plus rejected rows, as a real DP table has.
      cost_[i] = (i % 7 == 0) ? kRejectedCost
                              : static_cast<float>((i * 37) % 101);
    }
    // The double column the whole-cost filters read (aux or card): exact
    // repeats (ties), fractions, magnitudes up to the float overflow band,
    // and a few +inf rows.
    col_.resize(cost_.size());
    for (std::size_t i = 0; i < col_.size(); ++i) {
      col_[i] = (i % 11 == 0)  ? 1.0
                : (i % 13 == 0) ? 1e19 * static_cast<double>(i)
                : (i % 29 == 0) ? kRejectedCost
                                : static_cast<double>((i * 53) % 97) / 3.0;
    }
  }

  /// The successor-order enumeration of the proper nonempty subsets of s —
  /// the sequence idx[1 .. 2^k - 2] must reproduce exactly.
  static std::vector<std::uint32_t> SuccessorOrder(std::uint64_t s) {
    std::vector<std::uint32_t> out;
    for (std::uint64_t lhs = s & (0 - s); lhs != s; lhs = s & (lhs - s)) {
      out.push_back(static_cast<std::uint32_t>(lhs));
    }
    return out;
  }

  void CheckBuild(const SplitKernel* kernel, const char* name) {
    // Sparse, dense, and contiguous subset shapes, several popcounts.
    for (const std::uint64_t s :
         {std::uint64_t{0x1B7}, std::uint64_t{0x0FC}, std::uint64_t{0x03F},
          std::uint64_t{0x155}, std::uint64_t{0x1FF}, std::uint64_t{0x111},
          std::uint64_t{0x028}, std::uint64_t{0x003}}) {
      const int k = std::popcount(s);
      const std::size_t rows = std::size_t{1} << k;
      std::vector<std::uint32_t> idx(rows, 0xDEADBEEFu);
      std::vector<float> dc(rows, -1.0f);
      kernel->build(cost_.data(), s, k, idx.data(), dc.data());
      const std::vector<std::uint32_t> expected = SuccessorOrder(s);
      ASSERT_EQ(expected.size(), rows - 2) << name;
      EXPECT_EQ(idx[0], 0u) << name;
      EXPECT_EQ(idx[rows - 1], static_cast<std::uint32_t>(s)) << name;
      for (std::size_t r = 1; r + 1 < rows; ++r) {
        ASSERT_EQ(idx[r], expected[r - 1])
            << name << " s=" << s << " rank=" << r;
      }
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(dc[r], cost_[idx[r]])
            << name << " s=" << s << " rank=" << r;
      }
    }
  }

  void CheckFilter(const SplitKernel* kernel, const char* name) {
    const std::uint64_t s = 0x1B7;  // 7 relations: 126 proper splits.
    const int k = std::popcount(s);
    const std::uint32_t full_rank = (std::uint32_t{1} << k) - 1;
    const std::size_t rows = std::size_t{1} << k;
    std::vector<std::uint32_t> idx(rows);
    std::vector<float> dc(rows);
    kernel->build(cost_.data(), s, k, idx.data(), dc.data());
    for (const float best : {1e9f, 150.0f, 40.0f, 1.0f, 0.0f}) {
      // Every count in [1, kSplitFilterBlock] from rank 1 (the partial
      // first call), and every block-aligned slice of the whole stream —
      // exactly the shapes BlitzProcessSubset issues.
      for (int count = 1;
           count <= kSplitFilterBlock &&
           1 + static_cast<std::uint32_t>(count) <= full_rank;
           ++count) {
        const std::uint64_t got = kernel->filter(dc.data(), full_rank, 1,
                                                 count, best);
        EXPECT_EQ(got, ReferenceMask(dc, full_rank, 1, count, best))
            << name << " best=" << best << " count=" << count;
      }
      for (std::uint32_t r0 = 1; r0 < full_rank;
           r0 += static_cast<std::uint32_t>(kSplitFilterBlock)) {
        const int count = static_cast<int>(
            std::min<std::uint32_t>(kSplitFilterBlock, full_rank - r0));
        const std::uint64_t got = kernel->filter(dc.data(), full_rank, r0,
                                                 count, best);
        EXPECT_EQ(got, ReferenceMask(dc, full_rank, r0, count, best))
            << name << " best=" << best << " r0=" << r0;
      }
    }
  }

  /// The scalar loop's dpnd of rank r, operation for operation.
  static float ScalarDpnd(const std::vector<float>& dc,
                          const std::vector<double>& dx, std::uint32_t r,
                          std::uint32_t c, bool dnl) {
    const DiskNestedLoopsCostModel model;
    const SortMergeCostModel sm;
    const double kappa2 =
        dnl ? model.KappaDoublePrime(0, dx[r], dx[c], 0, 0)
            : sm.KappaDoublePrime(0, 0, 0, dx[r], dx[c]);
    const float oprnd = dc[r] + dc[c];
    return oprnd + static_cast<float>(kappa2);
  }

  /// Checks the gather stage and the whole-cost filters: every lane that
  /// would improve in sequential replay (dpnd below best and every earlier
  /// lane's dpnd) must survive, and no lane whose dpnd exceeds best (or is
  /// NaN) may — nor, for kappa_sm, whose dpnd ties it. The portable
  /// realization runs the threshold lane by lane, so its mask is exactly
  /// the improving lanes.
  void CheckWholeCost(const SplitKernel* kernel, const char* name,
                      bool exact) {
    const DiskNestedLoopsCostModel model;
    for (const std::uint64_t s :
         {std::uint64_t{0x1B7}, std::uint64_t{0x1FF}, std::uint64_t{0x0FC}}) {
      const int k = std::popcount(s);
      const std::uint32_t full_rank = (std::uint32_t{1} << k) - 1;
      const std::size_t rows = std::size_t{1} << k;
      std::vector<std::uint32_t> idx(rows);
      std::vector<float> dc(rows);
      std::vector<double> dx(rows, -1.0);
      kernel->build(cost_.data(), s, k, idx.data(), dc.data());
      kernel->gather(col_.data(), idx.data(), full_rank + 1, dx.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(dx[r], col_[idx[r]]) << name << " s=" << s << " r=" << r;
      }
      for (const bool dnl : {false, true}) {
        for (const float best : {kRejectedCost, 1e30f, 150.0f, 60.0f, 2.0f}) {
          for (std::uint32_t r0 = 1; r0 < full_rank;
               r0 += static_cast<std::uint32_t>(kSplitFilterBlock)) {
            const int count = static_cast<int>(
                std::min<std::uint32_t>(kSplitFilterBlock, full_rank - r0));
            const std::uint64_t got =
                dnl ? kernel->filter_dnl(dc.data(), dx.data(), full_rank, r0,
                                         count, best, model.KappaDivisor(),
                                         model.blocking_factor)
                    : kernel->filter_sm(dc.data(), dx.data(), full_rank, r0,
                                        count, best);
            std::uint64_t required = 0;
            std::uint64_t allowed = 0;
            float live = best;
            for (int i = 0; i < count; ++i) {
              const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
              const float dpnd = ScalarDpnd(dc, dx, r, full_rank - r, dnl);
              if (dpnd < live) {
                live = dpnd;
                required |= std::uint64_t{1} << i;
              }
              if (dpnd < best || (dnl && dpnd == best)) {
                allowed |= std::uint64_t{1} << i;
              }
            }
            SCOPED_TRACE(::testing::Message()
                         << name << (dnl ? " dnl" : " sm") << " s=" << s
                         << " r0=" << r0 << " best=" << best);
            EXPECT_EQ(got & required, required);
            EXPECT_EQ(got & ~allowed, 0u);
            if (exact) {
              EXPECT_EQ(got, required);
            }
          }
        }
      }
    }
  }

  static std::uint64_t ReferenceMask(const std::vector<float>& dc,
                                     std::uint32_t full_rank,
                                     std::uint32_t r0, int count,
                                     float best) {
    std::uint64_t mask = 0;
    for (int i = 0; i < count; ++i) {
      const std::uint32_t r = r0 + static_cast<std::uint32_t>(i);
      if (dc[r] + dc[full_rank - r] < best) mask |= std::uint64_t{1} << i;
    }
    return mask;
  }

  std::vector<float> cost_;
  std::vector<double> col_;
};

TEST_F(KernelDenseTest, PortableBuildMatchesSuccessorOrder) {
  CheckBuild(GetSplitKernel(SimdLevel::kBlock), "portable");
}

TEST_F(KernelDenseTest, PortableFilterMatchesReference) {
  CheckFilter(GetSplitKernel(SimdLevel::kBlock), "portable");
}

TEST_F(KernelDenseTest, PortableWholeCostFiltersAreExact) {
  CheckWholeCost(GetSplitKernel(SimdLevel::kBlock), "portable",
                 /*exact=*/true);
}

TEST_F(KernelDenseTest, Avx2MatchesReference) {
  if (!SplitFilterAvx2Compiled()) {
    GTEST_SKIP() << "binary compiled without AVX2 support";
  }
  if (!LevelRunnable(SimdLevel::kAvx2)) {
    GTEST_SKIP() << "CPU does not support AVX2";
  }
  CheckBuild(GetSplitKernel(SimdLevel::kAvx2), "avx2");
  CheckFilter(GetSplitKernel(SimdLevel::kAvx2), "avx2");
  CheckWholeCost(GetSplitKernel(SimdLevel::kAvx2), "avx2", /*exact=*/false);
}

TEST_F(KernelDenseTest, Avx512MatchesReference) {
  if (!SplitFilterAvx512Compiled()) {
    GTEST_SKIP() << "binary compiled without AVX-512 support";
  }
  if (!LevelRunnable(SimdLevel::kAvx512)) {
    GTEST_SKIP() << "CPU does not support AVX-512F";
  }
  CheckBuild(GetSplitKernel(SimdLevel::kAvx512), "avx512");
  CheckFilter(GetSplitKernel(SimdLevel::kAvx512), "avx512");
  CheckWholeCost(GetSplitKernel(SimdLevel::kAvx512), "avx512",
                 /*exact=*/false);
}

TEST_F(KernelDenseTest, RejectedLanesNeverSurvive) {
  // +inf lanes (threshold-rejected rows) must be filtered out by every
  // kernel under any finite best — the ordered-compare contract.
  const std::uint64_t s = 0x1B7;
  const int k = std::popcount(s);
  const std::uint32_t full_rank = (std::uint32_t{1} << k) - 1;
  for (float& c : cost_) c = kRejectedCost;
  for (const SimdLevel level :
       {SimdLevel::kBlock, ResolveSimdLevel(SimdLevel::kAvx2),
        ResolveSimdLevel(SimdLevel::kAvx512)}) {
    const SplitKernel* kernel = GetSplitKernel(level);
    if (kernel == nullptr) continue;
    std::vector<std::uint32_t> idx(std::size_t{1} << k);
    std::vector<float> dc(std::size_t{1} << k);
    kernel->build(cost_.data(), s, k, idx.data(), dc.data());
    const int count = static_cast<int>(
        std::min<std::uint32_t>(kSplitFilterBlock, full_rank - 1));
    EXPECT_EQ(kernel->filter(dc.data(), full_rank, 1, count, 1e30f), 0u)
        << SimdLevelName(level);
  }
}

}  // namespace
}  // namespace blitz
