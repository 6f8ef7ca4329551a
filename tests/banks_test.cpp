#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpusim/banks.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::gpusim {
namespace {

TEST(BankOf, SuccessiveWordsSuccessiveBanks) {
  EXPECT_EQ(bank_of(0, 16), 0u);
  EXPECT_EQ(bank_of(4, 16), 1u);
  EXPECT_EQ(bank_of(60, 16), 15u);
  EXPECT_EQ(bank_of(64, 16), 0u);  // wraps after 16 words
  EXPECT_EQ(bank_of(3, 16), 0u);  // bytes within one word share a bank
}

TEST(BankConflict, ConflictFreeSequential) {
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 16; ++l) addrs.push_back(4ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 1u);
}

TEST(BankConflict, BroadcastIsFree) {
  // All lanes read the same word: hardware broadcast, one step.
  std::vector<std::uint64_t> addrs(16, 128);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 1u);
}

TEST(BankConflict, StrideTwoHalvesThroughput) {
  // Stride-2 words: lanes 0 and 8 share bank 0, etc. -> 2-way conflict.
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 16; ++l) addrs.push_back(8ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 2u);
}

TEST(BankConflict, Stride16IsWorstCase) {
  // Every lane reads a different word in bank 0: fully serialised.
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 16; ++l) addrs.push_back(64ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 16u);
}

TEST(BankConflict, MixedBroadcastAndConflict) {
  // Two lanes share word A (broadcast), two read distinct words in the
  // same bank -> degree 2.
  std::vector<std::uint64_t> addrs{0, 0, 64, 128};
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 3u);  // words 0, 16, 32 in bank 0
}

TEST(BankConflict, ThirtyTwoBanksFermi) {
  // Stride-2 on 32 banks: 2-way conflict again.
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 32; ++l) addrs.push_back(8ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 32), 2u);
  // But stride-2 on 16 words touching banks 0..31 distinctly is free.
  addrs.clear();
  for (int l = 0; l < 16; ++l) addrs.push_back(4ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 32), 1u);
}

TEST(BankConflict, EmptyAccess) {
  EXPECT_EQ(bank_conflict_degree({}, 16), 0u);
}

TEST(BankConflict, ZeroBanksThrows) {
  std::vector<std::uint64_t> addrs{0};
  EXPECT_THROW(bank_conflict_degree(addrs, 0), lgg::Error);
}

TEST(BankConflict, MoreThanAWarpThrows) {
  const std::vector<std::uint64_t> addrs(kMaxBankAccesses + 1, 0);
  EXPECT_THROW(bank_conflict_degree(addrs, 16), lgg::Error);
}

/// The original per-bank vector-of-vectors formulation, kept only as an
/// oracle for the fixed-storage bank_conflict_degree.
std::uint32_t reference_degree(const std::vector<std::uint64_t>& addrs,
                               std::uint32_t banks) {
  if (addrs.empty()) return 0;
  std::vector<std::vector<std::uint64_t>> words_per_bank(banks);
  for (const std::uint64_t addr : addrs)
    words_per_bank[bank_of(addr, banks)].push_back(addr / 4);
  std::uint32_t degree = 1;
  for (auto& words : words_per_bank) {
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    degree = std::max(degree, static_cast<std::uint32_t>(words.size()));
  }
  return degree;
}

TEST(BankConflict, MatchesReferenceOnRandomAccesses) {
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 3000; ++trial) {
    // 16 and 32 banks as modelled, plus a non-power-of-two count.
    const std::uint32_t banks_choice[] = {16, 32, 12};
    const std::uint32_t banks = banks_choice[rng.uniform(3)];
    const std::size_t n = rng.uniform(kMaxBankAccesses + 1);
    // Narrow ranges force broadcasts and repeated banks; wide ones don't.
    const std::uint64_t range = std::uint64_t{1} << (2 + rng.uniform(12));
    std::vector<std::uint64_t> addrs(n);
    for (auto& a : addrs) a = rng.uniform(range);
    ASSERT_EQ(bank_conflict_degree(addrs, banks),
              reference_degree(addrs, banks))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace lgg::gpusim
