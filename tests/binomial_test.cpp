#include <gtest/gtest.h>

#include <algorithm>

#include "combi/binomial.hpp"

namespace lgg::combi {
namespace {

TEST(Binomial, SmallValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 1), 5u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(5, 3), 10u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Binomial, KGreaterThanNIsZero) {
  EXPECT_EQ(binomial(3, 4), 0u);
  EXPECT_EQ(binomial(0, 1), 0u);
}

TEST(Binomial, PascalIdentityHolds) {
  for (std::uint64_t n = 1; n <= 40; ++n)
    for (std::uint64_t k = 1; k <= n; ++k)
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << n << " choose " << k;
}

TEST(Binomial, Symmetry) {
  for (std::uint64_t n = 0; n <= 60; ++n)
    for (std::uint64_t k = 0; k <= n; ++k)
      EXPECT_EQ(binomial(n, k), binomial(n, n - k));
}

TEST(Binomial, LargeExactValues) {
  // C(100000, 3) — the paper's 100k-node triangle scale.
  EXPECT_EQ(binomial(100000, 3), 166661666700000ull);
  // C(61, 30) is near the top of what fits in 64 bits.
  EXPECT_EQ(binomial(61, 30), 232714176627630544ull);
  // C(62, 28): also representable.
  EXPECT_NE(binomial(62, 28), kBinomialOverflow);
}

TEST(Binomial, OverflowDetected) {
  EXPECT_EQ(binomial(70, 35), kBinomialOverflow);
  EXPECT_EQ(binomial(1u << 20, 7), kBinomialOverflow);
  EXPECT_EQ(binomial(10, 5), 252u);
}

TEST(Binomial, TriangleCountsForPaperSizes) {
  // The n=200..1200 sweep of Figs. 10/12 stays comfortably in range.
  for (std::uint64_t n = 200; n <= 1200; n += 200)
    EXPECT_EQ(binomial(n, 3), n * (n - 1) * (n - 2) / 6);
}

TEST(BinomialDifference, AgreesWithBinomialsWhereBothFit) {
  for (std::uint32_t k = 0; k <= 6; ++k)
    for (std::uint32_t s = 0; s <= 70; ++s)
      for (std::uint32_t x = 0; x <= s + 2; ++x) {
        const std::uint64_t all = binomial(s, k);
        if (all == kBinomialOverflow) continue;
        EXPECT_EQ(binomial_difference(s, x, k),
                  all - binomial(s - std::min(x, s), k))
            << "s=" << s << " x=" << x << " k=" << k;
      }
  // Large s where C(s, k) still fits, at both ends of x.
  for (const std::uint32_t s : {100000u, 2642246u, 4000000u})
    for (const std::uint32_t x : {1u, 2u, 1000u, s - 2, s})
      EXPECT_EQ(binomial_difference(s, x, 3),
                binomial(s, 3) - binomial(s - x, 3))
          << "s=" << s << " x=" << x;
  EXPECT_EQ(binomial_difference(10000, 37, 4),
            binomial(10000, 4) - binomial(10000 - 37, 4));
}

TEST(BinomialDifference, ExactPastTwoToTheSixtyFour) {
  // C(5,000,000, 3) and C(200,000, 4) overflow 64 bits on their own.
  constexpr std::uint32_t s = 5000000;
  ASSERT_EQ(binomial(s, 3), kBinomialOverflow);
  ASSERT_EQ(binomial(200000, 4), kBinomialOverflow);
  // Hockey stick: the difference is a sum of C(s-1-t, k-1) for t < x.
  for (const std::uint32_t x : {1u, 2u, 3u, 1000u}) {
    std::uint64_t sum = 0;
    for (std::uint32_t t = 0; t < x; ++t) sum += binomial(s - 1 - t, 2);
    EXPECT_EQ(binomial_difference(s, x, 3), sum) << "x=" << x;
  }
  EXPECT_EQ(binomial_difference(s, 1, 3), 12499992500001u);
  EXPECT_EQ(binomial_difference(s, 0, 3), 0u);
  EXPECT_EQ(binomial_difference(200000, 2, 4),
            binomial(199999, 3) + binomial(199998, 3));
  // The sentinel only when the difference itself does not fit.
  EXPECT_EQ(binomial_difference(s, s, 3), kBinomialOverflow);
  EXPECT_EQ(binomial_difference(s, 1, 4), kBinomialOverflow);  // C(s-1, 3)
  // k > 4 falls back to 64-bit binomials: overflow once C(s, k) does.
  EXPECT_EQ(binomial_difference(s, 1, 5), kBinomialOverflow);
  EXPECT_EQ(binomial_difference(60, 3, 5),
            binomial(60, 5) - binomial(57, 5));
}

TEST(BinomialDifference, FirstElementBelowInvertsTheCounts) {
  // Every index of small spaces against a linear scan, k = 2..5.
  for (std::uint32_t k = 2; k <= 5; ++k)
    for (std::uint32_t s = k; s <= 14; ++s)
      for (std::uint32_t x_max = 1; x_max <= s - k + 1; ++x_max)
        for (std::uint64_t index = 0;
             index < binomial_difference(s, x_max, k); ++index) {
          std::uint32_t want = 0;
          while (want + 1 < x_max &&
                 binomial_difference(s, want + 1, k) <= index)
            ++want;
          std::uint64_t before = 0;
          EXPECT_EQ(first_element_below(s, x_max, k, index, before), want);
          EXPECT_EQ(before, binomial_difference(s, want, k));
        }
  // Past C(s, 3) > 2^64: the first and last index of each first element.
  constexpr std::uint32_t s = 5000000;
  for (const std::uint32_t x : {0u, 1u, 499u, 998u}) {
    std::uint64_t before = 0;
    const std::uint64_t first = binomial_difference(s, x, 3);
    EXPECT_EQ(first_element_below(s, 999, 3, first, before), x);
    EXPECT_EQ(before, first);
    const std::uint64_t last = binomial_difference(s, x + 1, 3) - 1;
    EXPECT_EQ(first_element_below(s, 999, 3, last, before), x);
  }
}

TEST(PrecomputedStorage, MatchesSectionVIIIFormula) {
  // n=16, k=3: C(16,3)=560 combos, 4 bits per id, 3 ids.
  EXPECT_EQ(precomputed_storage_bits(16, 3), 560u * 3 * 4);
  // n=17 -> ids need 5 bits (ceil(log2 17)).
  EXPECT_EQ(precomputed_storage_bits(17, 3), binomial(17, 3) * 3 * 5);
}

TEST(PrecomputedStorage, OverflowPropagates) {
  EXPECT_EQ(precomputed_storage_bits(1u << 21, 8), kBinomialOverflow);
}

}  // namespace
}  // namespace lgg::combi
