#include "parallel/rank_enum.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace blitz {
namespace {

TEST(BinomialTest, SmallValues) {
  EXPECT_EQ(Binomial(0, 0), 1u);
  EXPECT_EQ(Binomial(4, 2), 6u);
  EXPECT_EQ(Binomial(13, 6), 1716u);
  EXPECT_EQ(Binomial(18, 9), 48620u);
  EXPECT_EQ(Binomial(30, 15), 155117520u);
}

TEST(BinomialTest, OutOfRangeIsZero) {
  EXPECT_EQ(Binomial(-1, 0), 0u);
  EXPECT_EQ(Binomial(5, -1), 0u);
  EXPECT_EQ(Binomial(5, 6), 0u);
  EXPECT_EQ(Binomial(64, 1), 0u);
}

TEST(BinomialTest, SymmetryAndPascal) {
  for (int n = 1; n <= kMaxRankBits; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_EQ(Binomial(n, k), Binomial(n, n - k)) << n << " " << k;
      if (k >= 1 && k <= n - 1) {
        EXPECT_EQ(Binomial(n, k),
                  Binomial(n - 1, k - 1) + Binomial(n - 1, k));
      }
    }
  }
}

TEST(BinomialTest, LargestEntryIsExact) {
  // C(63, 31) overflows 32 bits by far but fits uint64; spot-check against
  // the known value.
  EXPECT_EQ(Binomial(63, 31), 916312070471295267u);
}

TEST(RankEnumTest, FirstKSubset) {
  EXPECT_EQ(FirstKSubset(1), 0b1u);
  EXPECT_EQ(FirstKSubset(3), 0b111u);
  EXPECT_EQ(FirstKSubset(0), 0u);
}

TEST(RankEnumTest, GosperEnumeratesRankInIncreasingOrder) {
  for (int n = 1; n <= 14; ++n) {
    for (int k = 1; k <= n; ++k) {
      const std::uint64_t count = Binomial(n, k);
      std::uint64_t v = FirstKSubset(k);
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        EXPECT_EQ(std::popcount(v), k);
        EXPECT_LT(v, std::uint64_t{1} << n);
        if (i > 0) {
          EXPECT_GT(v, prev);
        }
        prev = v;
        if (i + 1 < count) v = NextKSubset(v);
      }
      // The last subset of the rank is the top-aligned one.
      EXPECT_EQ(prev, FirstKSubset(k) << (n - k));
    }
  }
}

TEST(RankEnumTest, NthKSubsetMatchesEnumeration) {
  for (int n = 1; n <= 12; ++n) {
    for (int k = 1; k <= n; ++k) {
      const std::uint64_t count = Binomial(n, k);
      std::uint64_t v = FirstKSubset(k);
      for (std::uint64_t r = 0; r < count; ++r) {
        EXPECT_EQ(NthKSubset(n, k, r), v) << "n=" << n << " k=" << k
                                          << " r=" << r;
        if (r + 1 < count) v = NextKSubset(v);
      }
    }
  }
}

TEST(RankEnumTest, NthKSubsetJumpsIntoWideRanks) {
  // Spot-check positions deep inside ranks too large to enumerate fully.
  EXPECT_EQ(NthKSubset(40, 20, 0), FirstKSubset(20));
  EXPECT_EQ(NthKSubset(40, 20, Binomial(40, 20) - 1),
            FirstKSubset(20) << 20);
  // Walking Gosper from an unranked start stays consistent with unranking.
  const std::uint64_t r = Binomial(40, 20) / 3;
  std::uint64_t v = NthKSubset(40, 20, r);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    v = NextKSubset(v);
    EXPECT_EQ(v, NthKSubset(40, 20, r + i));
  }
}

TEST(RankEnumTest, ContiguousChunksTileEachRank) {
  // The parallel driver's sharding: chunk c covers combination indexes
  // [count*c/C, count*(c+1)/C). Together the chunks must enumerate the rank
  // exactly once, in order.
  const int n = 11;
  for (int k = 2; k <= n; ++k) {
    const std::uint64_t count = Binomial(n, k);
    for (const int chunks : {1, 2, 3, 7, 8}) {
      std::vector<std::uint64_t> seen;
      for (int c = 0; c < chunks; ++c) {
        const std::uint64_t begin =
            count * static_cast<std::uint64_t>(c) /
            static_cast<std::uint64_t>(chunks);
        const std::uint64_t end =
            count * (static_cast<std::uint64_t>(c) + 1) /
            static_cast<std::uint64_t>(chunks);
        if (begin == end) continue;
        std::uint64_t v = NthKSubset(n, k, begin);
        for (std::uint64_t i = begin; i < end; ++i) {
          seen.push_back(v);
          if (i + 1 < end) v = NextKSubset(v);
        }
      }
      ASSERT_EQ(seen.size(), count) << "k=" << k << " chunks=" << chunks;
      std::uint64_t v = FirstKSubset(k);
      for (std::uint64_t i = 0; i < count; ++i) {
        EXPECT_EQ(seen[i], v);
        if (i + 1 < count) v = NextKSubset(v);
      }
    }
  }
}

}  // namespace
}  // namespace blitz
