// Boundary property tests for combinadic unranking and work division:
// the largest C(n, k) representable in 64 bits, off-by-one ranks at every
// strategy boundary, and the overflow sentinels.  These are the edges the
// differential fuzzer cannot reach by sampling small graphs.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "lgg.hpp"

namespace lgg::combi {
namespace {

// C(67, 33) = 14,226,520,737,620,288,370 is the largest central binomial
// coefficient that fits in 64 bits; C(68, 34) = 2 * C(67, 33) does not.
constexpr std::uint64_t kC67_33 = 14226520737620288370ull;

std::vector<std::uint32_t> unrank(std::uint64_t index, std::uint32_t n,
                                  std::uint32_t k) {
  std::vector<std::uint32_t> out(k);
  combination_from_index(index, n, k, out);
  return out;
}

TEST(BinomialBoundary, LargestRepresentableCentralCoefficient) {
  EXPECT_EQ(binomial(67, 33), kC67_33);
  EXPECT_EQ(binomial(67, 34), kC67_33);  // symmetry
  EXPECT_EQ(binomial(68, 34), kBinomialOverflow);
}

TEST(BinomialBoundary, PrecomputedStorageSaturates) {
  // C(67, 33) combinations of 33 7-bit ids: the product alone overflows.
  EXPECT_EQ(precomputed_storage_bits(67, 33), kBinomialOverflow);
  // Sane small case stays exact: C(8, 3) = 56 combos * 3 ids * 3 bits.
  EXPECT_EQ(precomputed_storage_bits(8, 3), 56ull * 3 * 3);
}

TEST(CombinadicBoundary, RoundTripAtLargestRepresentableNK) {
  const std::uint32_t n = 67, k = 33;
  const std::uint64_t total = binomial(n, k);
  ASSERT_EQ(total, kC67_33);
  for (const std::uint64_t index :
       {std::uint64_t{0}, std::uint64_t{1}, total / 2, total - 2, total - 1}) {
    const auto combo = unrank(index, n, k);
    ASSERT_EQ(combo.size(), k);
    EXPECT_EQ(index_from_combination(combo, n), index) << "index=" << index;
  }
  // First and last combinations are the canonical extremes.
  std::vector<std::uint32_t> first(k), last(k);
  std::iota(first.begin(), first.end(), 0u);
  std::iota(last.begin(), last.end(), n - k);
  EXPECT_EQ(unrank(0, n, k), first);
  EXPECT_EQ(unrank(total - 1, n, k), last);
  EXPECT_FALSE(next_combination(std::span<std::uint32_t>(last), n));
}

TEST(CombinadicBoundary, RankJustPastTheEndThrows) {
  EXPECT_THROW(unrank(binomial(67, 33), 67, 33), lgg::Error);
  EXPECT_THROW(unrank(binomial(10, 3), 10, 3), lgg::Error);
}

TEST(CombinadicBoundary, RoundTripAtPaperScaleTriangles) {
  // The paper's regime: n ~ 100,000 vertices, k = 3.
  const std::uint32_t n = 100000, k = 3;
  const std::uint64_t total = binomial(n, k);
  ASSERT_NE(total, kBinomialOverflow);
  EXPECT_EQ(unrank(0, n, k), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(unrank(total - 1, n, k),
            (std::vector<std::uint32_t>{n - 3, n - 2, n - 1}));
  for (const std::uint64_t index : {std::uint64_t{1}, total / 3, total - 2}) {
    EXPECT_EQ(index_from_combination(unrank(index, n, k), n), index);
  }
}

TEST(StrategyBoundary, EqualDivisionRangesAreContiguousAndSeamless) {
  const std::uint32_t n = 30, k = 4;
  const std::uint64_t total = binomial(n, k);
  for (const std::uint32_t threads : {1u, 3u, 7u, 32u, 64u}) {
    const auto ranges = divide_work(total, threads);
    ASSERT_EQ(ranges.size(), threads);
    EXPECT_EQ(ranges.front().begin, 0u);
    EXPECT_EQ(ranges.back().end, total);
    for (std::uint32_t t = 0; t + 1 < threads; ++t) {
      EXPECT_EQ(ranges[t].end, ranges[t + 1].begin);
      // The off-by-one property that makes per-thread unranking correct:
      // the successor of the last combination of thread t is exactly the
      // unranked first combination of thread t + 1.
      const std::uint64_t b = ranges[t].end;
      if (b == 0 || b >= total) continue;
      auto prev = unrank(b - 1, n, k);
      ASSERT_TRUE(next_combination(std::span<std::uint32_t>(prev), n));
      EXPECT_EQ(prev, unrank(b, n, k)) << "boundary " << b << " threads="
                                       << threads;
    }
  }
}

TEST(StrategyBoundary, EqualDivisionEmitsExactlyTheRangeEndpoints) {
  const std::uint32_t n = 18, k = 3, threads = 7;
  const std::uint64_t total = binomial(n, k);
  const auto ranges = divide_work(total, threads);

  std::vector<std::vector<std::uint32_t>> first_seen(threads), last_seen(threads);
  const auto stats = enumerate_combinations(
      Strategy::kEqualDivision, n, k, threads,
      [&](std::uint32_t t, std::span<const std::uint32_t> combo) {
        std::vector<std::uint32_t> c(combo.begin(), combo.end());
        if (first_seen[t].empty()) first_seen[t] = c;
        last_seen[t] = std::move(c);
      });

  EXPECT_EQ(stats.total_combinations, total);
  for (std::uint32_t t = 0; t < threads; ++t) {
    ASSERT_GT(ranges[t].size(), 0u);
    EXPECT_EQ(stats.per_thread[t], ranges[t].size());
    EXPECT_EQ(first_seen[t], unrank(ranges[t].begin, n, k)) << "thread " << t;
    EXPECT_EQ(last_seen[t], unrank(ranges[t].end - 1, n, k)) << "thread " << t;
  }
}

TEST(StrategyBoundary, SplitByStartPerThreadMatchesClosedForm) {
  const std::uint32_t n = 16, k = 3, threads = 5;
  const auto stats =
      enumerate_combinations(Strategy::kSplitByStart, n, k, threads);
  ASSERT_EQ(stats.per_thread.size(), threads);
  // Combinations with first element `start` number C(n - 1 - start, k - 1),
  // and thread t owns every start ≡ t (mod threads).
  for (std::uint32_t t = 0; t < threads; ++t) {
    std::uint64_t expected = 0;
    for (std::uint32_t start = t; start + k <= n; start += threads) {
      expected += binomial(n - 1 - start, k - 1);
    }
    EXPECT_EQ(stats.per_thread[t], expected) << "thread " << t;
  }
  EXPECT_EQ(std::accumulate(stats.per_thread.begin(), stats.per_thread.end(),
                            std::uint64_t{0}),
            binomial(n, k));
}

TEST(StrategyBoundary, AllStrategiesRefuseOverflowingTotals) {
  for (const Strategy s :
       {Strategy::kPrecomputed, Strategy::kSequential, Strategy::kSplitByStart,
        Strategy::kEqualDivision}) {
    EXPECT_THROW(enumerate_combinations(s, 68, 34, 4), lgg::Error)
        << strategy_name(s);
  }
}

}  // namespace
}  // namespace lgg::combi
