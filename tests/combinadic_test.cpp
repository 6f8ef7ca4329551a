#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "combi/binomial.hpp"
#include "combi/combinadic.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::combi {
namespace {

std::vector<std::uint32_t> unrank(std::uint64_t index, std::uint32_t n,
                                  std::uint32_t k) {
  std::vector<std::uint32_t> out(k);
  combination_from_index(index, n, k, out);
  return out;
}

TEST(Combinadic, FirstAndLastCombination) {
  EXPECT_EQ(unrank(0, 5, 3),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(unrank(binomial(5, 3) - 1, 5, 3),
            (std::vector<std::uint32_t>{2, 3, 4}));
}

TEST(Combinadic, KnownSequenceN5K3) {
  // Full lexicographic order of C(5,3).
  const std::vector<std::vector<std::uint32_t>> want = {
      {0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 2, 3}, {0, 2, 4},
      {0, 3, 4}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(unrank(i, 5, 3), want[i]) << "index " << i;
}

TEST(Combinadic, IndexOutOfRangeThrows) {
  EXPECT_THROW(unrank(binomial(5, 3), 5, 3), lgg::Error);
}

TEST(Combinadic, RankUnrankRoundTripExhaustive) {
  for (const auto& [n, k] : {std::pair{7u, 3u}, {10u, 4u}, {12u, 2u},
                            {6u, 6u}, {9u, 1u}}) {
    const std::uint64_t total = binomial(n, k);
    for (std::uint64_t i = 0; i < total; ++i) {
      const auto combo = unrank(i, n, k);
      EXPECT_EQ(index_from_combination(combo, n), i)
          << "n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(Combinadic, RankUnrankRoundTripLargeRandom) {
  Xoshiro256 rng(77);
  const std::uint32_t n = 100000, k = 3;
  const std::uint64_t total = binomial(n, k);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t i = rng.uniform(total);
    const auto combo = unrank(i, n, k);
    EXPECT_TRUE(std::is_sorted(combo.begin(), combo.end()));
    EXPECT_LT(combo.back(), n);
    EXPECT_EQ(index_from_combination(combo, n), i);
  }
}

TEST(Combinadic, RankValidatesInput) {
  const std::vector<std::uint32_t> not_increasing{3, 3, 5};
  EXPECT_THROW(index_from_combination(not_increasing, 10), lgg::Error);
  const std::vector<std::uint32_t> out_of_range{3, 4, 10};
  EXPECT_THROW(index_from_combination(out_of_range, 10), lgg::Error);
}

TEST(NextCombination, WalksFullLexOrder) {
  std::vector<std::uint32_t> combo{0, 1, 2};
  std::uint64_t steps = 1;
  std::vector<std::uint32_t> prev = combo;
  while (next_combination(combo, 8)) {
    EXPECT_TRUE(std::lexicographical_compare(prev.begin(), prev.end(),
                                             combo.begin(), combo.end()));
    EXPECT_TRUE(std::is_sorted(combo.begin(), combo.end()));
    prev = combo;
    ++steps;
  }
  EXPECT_EQ(steps, binomial(8, 3));
  EXPECT_EQ(combo, (std::vector<std::uint32_t>{5, 6, 7}));  // unchanged at end
}

TEST(NextCombination, AgreesWithUnranking) {
  const std::uint32_t n = 9, k = 4;
  std::vector<std::uint32_t> combo{0, 1, 2, 3};
  for (std::uint64_t i = 0; i + 1 < binomial(n, k); ++i) {
    ASSERT_TRUE(next_combination(combo, n));
    EXPECT_EQ(combo, unrank(i + 1, n, k)) << "i=" << i;
  }
  EXPECT_FALSE(next_combination(combo, n));
}

TEST(NextCombination, EmptyAndFull) {
  std::vector<std::uint32_t> empty;
  EXPECT_FALSE(next_combination(empty, 5));
  std::vector<std::uint32_t> full{0, 1, 2, 3, 4};
  EXPECT_FALSE(next_combination(full, 5));  // single combination
}

TEST(Combinadic, InPlaceVariantMatches) {
  std::vector<std::uint32_t> buf(3);
  combination_from_index(42, 12, 3, buf);
  std::vector<std::uint32_t> walked{0, 1, 2};
  for (int i = 0; i < 42; ++i) ASSERT_TRUE(next_combination(walked, 12));
  EXPECT_EQ(buf, walked);
  std::vector<std::uint32_t> wrong_size(2);
  EXPECT_THROW(combination_from_index(0, 12, 3, wrong_size), lgg::Error);
}

}  // namespace
}  // namespace lgg::combi
