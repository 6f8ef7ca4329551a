#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "gpusim/coalescing.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::gpusim {
namespace {

/// 32 lanes reading consecutive 4-byte words from `base`.
std::vector<std::uint64_t> sequential_warp(std::uint64_t base) {
  std::vector<std::uint64_t> addrs(32);
  for (std::uint32_t l = 0; l < 32; ++l) addrs[l] = base + 4ull * l;
  return addrs;
}

/// Same 128-byte footprint but lanes permuted within each 64-byte half.
std::vector<std::uint64_t> permuted_warp(std::uint64_t base) {
  auto addrs = sequential_warp(base);
  // Swap pairs within each half-warp: a permutation, same segments.
  for (std::uint32_t l = 0; l + 1 < 16; l += 2) std::swap(addrs[l], addrs[l + 1]);
  for (std::uint32_t l = 16; l + 1 < 32; l += 2) std::swap(addrs[l], addrs[l + 1]);
  return addrs;
}

// ---- Table III of the paper, row by row ----

// No padding bytes: CTest names each row after the raw bytes GoogleTest
// prints for it, so padding would put indeterminate bytes in test names.
// `name_tag` fills the three bytes after `sequential` with fixed values;
// it only pins each row's test name (the names these rows were first
// registered under) and is never read by the test.
struct TableIIIRow {
  ComputeCapability cc;
  bool sequential;  // true: in-order lanes, false: permuted
  std::uint8_t name_tag[3];
  std::size_t want_transactions;
};
static_assert(sizeof(TableIIIRow) ==
              sizeof(ComputeCapability) + 1 + 3 + sizeof(std::size_t));

class TableIII : public ::testing::TestWithParam<TableIIIRow> {};

TEST_P(TableIII, TransactionCountsMatchPaper) {
  const auto& row = GetParam();
  const auto addrs =
      row.sequential ? sequential_warp(0) : permuted_warp(0);
  EXPECT_EQ(warp_transaction_count(row.cc, addrs, 4), row.want_transactions);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableIII,
    ::testing::Values(
        TableIIIRow{ComputeCapability::k10, true, {0x65, 0x73, 0x63}, 2},
        TableIIIRow{ComputeCapability::k11, true, {0, 0, 0}, 2},
        TableIIIRow{ComputeCapability::k12, true, {0, 0, 0}, 2},
        TableIIIRow{ComputeCapability::k13, true, {0x3B, 0x2C, 0}, 2},
        TableIIIRow{ComputeCapability::k20, true, {0, 0xD0, 0xEF}, 1},
        TableIIIRow{ComputeCapability::k10, false, {0, 0, 0}, 32},
        TableIIIRow{ComputeCapability::k11, false, {0, 0, 0}, 32},
        TableIIIRow{ComputeCapability::k12, false, {0x1E, 0x09, 0}, 2},
        TableIIIRow{ComputeCapability::k13, false, {0, 0xD0, 0xCA}, 2},
        TableIIIRow{ComputeCapability::k20, false, {0, 0, 0}, 1}));

// ---- rule details ----

TEST(CoalesceCc10, MisalignedBaseSerialises) {
  // Sequential but shifted by one word: CC 1.0/1.1 cannot coalesce.
  const auto addrs = sequential_warp(4);
  EXPECT_EQ(warp_transaction_count(ComputeCapability::k10, addrs, 4), 32u);
  // CC 1.2 covers each half-warp with two segments (64B span straddling
  // the 64B boundary within a 128B segment may still be 1 or 2).
  EXPECT_LE(warp_transaction_count(ComputeCapability::k12, addrs, 4), 4u);
}

TEST(CoalesceCc10, InactiveLanesAllowed) {
  // Lanes 0..15 except lane 7 read their own word: still one transaction.
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) {
    if (l == 7) continue;
    accesses.push_back({l, 4ull * l});
  }
  const auto result = coalesce_slot(ComputeCapability::k10, accesses, 4);
  EXPECT_EQ(result.count, 1u);
  EXPECT_EQ(result.txns[0].bytes, 64u);
}

TEST(CoalesceCc12, BroadcastSameWordIsOneNarrowTransaction) {
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) accesses.push_back({l, 256});
  const auto result = coalesce_slot(ComputeCapability::k13, accesses, 4);
  ASSERT_EQ(result.count, 1u);
  EXPECT_EQ(result.txns[0].bytes, 32u);  // narrowed to a quarter
}

TEST(CoalesceCc12, NarrowingTo64Bytes) {
  // Half-warp touching only the upper 64B half of a 128B segment.
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) accesses.push_back({l, 64 + 4ull * l});
  const auto result = coalesce_slot(ComputeCapability::k12, accesses, 4);
  ASSERT_EQ(result.count, 1u);
  EXPECT_EQ(result.txns[0].base, 64u);
  EXPECT_EQ(result.txns[0].bytes, 64u);
}

TEST(CoalesceCc12, ScatteredLanesOneSegmentEach) {
  // 16 lanes in 16 different 128-byte segments.
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l)
    accesses.push_back({l, 1024ull * l});
  const auto result = coalesce_slot(ComputeCapability::k13, accesses, 4);
  EXPECT_EQ(result.count, 16u);
}

TEST(CoalesceCc20, DistinctLinesCounted) {
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 32; ++l)
    accesses.push_back({l, (l % 4) * 128ull});  // 4 distinct lines
  const auto result = coalesce_slot(ComputeCapability::k20, accesses, 4);
  EXPECT_EQ(result.count, 4u);
  EXPECT_EQ(result.bytes, 4u * 128);
}

TEST(CoalesceCc20, FullWarpNotSplitIntoHalves) {
  // Lanes 0..31 within one 128B line: a single transaction (CC 1.x would
  // use two half-warp transactions).
  const auto addrs = sequential_warp(1024);
  EXPECT_EQ(warp_transaction_count(ComputeCapability::k20, addrs, 4), 1u);
  EXPECT_EQ(warp_transaction_count(ComputeCapability::k13, addrs, 4), 2u);
}

TEST(Coalesce, EmptyAccessListNoTransactions) {
  const auto result =
      coalesce_slot(ComputeCapability::k13, std::vector<LaneAccess>{}, 4);
  EXPECT_EQ(result.count, 0u);
}

TEST(Coalesce, ValidatesArguments) {
  const std::vector<LaneAccess> bad_lane{{32, 0}};
  const std::vector<LaneAccess> misaligned{{0, 2}};
  const std::vector<LaneAccess> ok{{0, 0}};
  // A lane issues one access per slot: a repeat would overflow the fixed
  // per-slot storage, so it is rejected.
  const std::vector<LaneAccess> twice{{5, 0}, {5, 4}};
  for (const auto cc : {ComputeCapability::k10, ComputeCapability::k12,
                        ComputeCapability::k13, ComputeCapability::k20}) {
    EXPECT_THROW(coalesce_slot(cc, bad_lane, 4), lgg::Error);
    EXPECT_THROW(coalesce_slot(cc, misaligned, 4), lgg::Error);
    EXPECT_THROW(coalesce_slot(cc, ok, 0), lgg::Error);
    EXPECT_THROW(coalesce_slot(cc, twice, 4), lgg::Error);
  }
}

TEST(Coalesce, EightByteWords) {
  // 16 lanes * 8 bytes = 128B per half-warp, aligned: one 128B transaction
  // per half-warp on CC 1.0 (segment = 16 * word size).
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) accesses.push_back({l, 8ull * l});
  const auto result = coalesce_slot(ComputeCapability::k10, accesses, 8);
  ASSERT_EQ(result.count, 1u);
  EXPECT_EQ(result.txns[0].bytes, 128u);
}

// Monotonicity property: a permutation never helps on CC >= 1.2 and never
// hurts relative to the strict rule's worst case.
TEST(Coalesce, RandomPatternsWithinBounds) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> addrs(32);
    for (auto& a : addrs) a = rng.uniform(1 << 16) * 4;
    const std::size_t t10 =
        warp_transaction_count(ComputeCapability::k10, addrs, 4);
    const std::size_t t13 =
        warp_transaction_count(ComputeCapability::k13, addrs, 4);
    const std::size_t t20 =
        warp_transaction_count(ComputeCapability::k20, addrs, 4);
    EXPECT_LE(t13, t10);  // hardware coalescer never loses to strict rule
    EXPECT_LE(t20, t13);  // cache lines never lose to segments
    EXPECT_GE(t13, 1u);
    EXPECT_LE(t10, 32u);
  }
}

// ---- differential test against the reference coalescer ----
//
// The reference below is the original map/vector/sort formulation of the
// same Appendix G rules, kept here only as an oracle for coalesce_slot.

namespace oracle {

void cc10(std::span<const LaneAccess> half, std::uint32_t word_bytes,
          std::uint32_t lane_base, std::vector<Transaction>& out) {
  if (half.empty()) return;
  const std::uint64_t segment_bytes = 16ull * word_bytes;
  const std::uint64_t base =
      half.front().addr -
      static_cast<std::uint64_t>(half.front().lane - lane_base) * word_bytes;
  bool coalesced = (base % segment_bytes) == 0;
  if (coalesced) {
    for (const LaneAccess& a : half) {
      if (a.addr !=
          base + static_cast<std::uint64_t>(a.lane - lane_base) * word_bytes) {
        coalesced = false;
        break;
      }
    }
  }
  if (coalesced) {
    out.push_back({base, static_cast<std::uint32_t>(segment_bytes)});
  } else {
    const std::uint32_t txn_bytes = std::max<std::uint32_t>(word_bytes, 32);
    for (const LaneAccess& a : half)
      out.push_back({a.addr - a.addr % txn_bytes, txn_bytes});
  }
}

void cc12(std::span<const LaneAccess> half, std::uint32_t word_bytes,
          std::vector<Transaction>& out) {
  if (half.empty()) return;
  const std::uint64_t seg = word_bytes >= 4 ? 128 : (word_bytes == 2 ? 64 : 32);
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> segments;
  for (const LaneAccess& a : half) {
    auto [it, inserted] = segments.try_emplace(a.addr / seg, a.addr, a.addr);
    if (!inserted) {
      it->second.first = std::min(it->second.first, a.addr);
      it->second.second = std::max(it->second.second, a.addr);
    }
  }
  for (const auto& [s, span] : segments) {
    std::uint64_t b = s * seg, size = seg;
    const std::uint64_t lo = span.first, hi = span.second + word_bytes - 1;
    while (size > 32) {
      const std::uint64_t half_size = size / 2;
      if (hi < b + half_size) {
        size = half_size;
      } else if (lo >= b + half_size) {
        b += half_size;
        size = half_size;
      } else {
        break;
      }
    }
    out.push_back({b, static_cast<std::uint32_t>(size)});
  }
}

void cc20(std::span<const LaneAccess> warp, std::uint32_t word_bytes,
          std::vector<Transaction>& out) {
  std::vector<std::uint64_t> lines;
  for (const LaneAccess& a : warp) {
    lines.push_back(a.addr / 128);
    if ((a.addr % 128) + word_bytes > 128) lines.push_back(a.addr / 128 + 1);
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  for (const std::uint64_t line : lines) out.push_back({line * 128, 128});
}

std::vector<Transaction> coalesce(ComputeCapability cc,
                                  std::span<const LaneAccess> accesses,
                                  std::uint32_t word_bytes) {
  std::vector<Transaction> out;
  if (cc >= ComputeCapability::k20) {
    cc20(accesses, word_bytes, out);
    return out;
  }
  std::vector<LaneAccess> low, high;
  for (const LaneAccess& a : accesses) (a.lane < 16 ? low : high).push_back(a);
  const auto by_lane = [](const LaneAccess& x, const LaneAccess& y) {
    return x.lane < y.lane;
  };
  std::sort(low.begin(), low.end(), by_lane);
  std::sort(high.begin(), high.end(), by_lane);
  if (cc <= ComputeCapability::k11) {
    cc10(low, word_bytes, 0, out);
    cc10(high, word_bytes, 16, out);
  } else {
    cc12(low, word_bytes, out);
    cc12(high, word_bytes, out);
  }
  return out;
}

std::uint64_t ideal(ComputeCapability cc, std::span<const LaneAccess> slot,
                    std::uint32_t word_bytes) {
  if (slot.empty()) return 0;
  if (cc >= ComputeCapability::k20) {
    const std::uint64_t need =
        static_cast<std::uint64_t>(slot.size()) * word_bytes;
    return std::max<std::uint64_t>(1, (need + 127) / 128);
  }
  bool half[2] = {false, false};
  for (const LaneAccess& a : slot) half[a.lane >= 16 ? 1 : 0] = true;
  return static_cast<std::uint64_t>(half[0]) +
         static_cast<std::uint64_t>(half[1]);
}

}  // namespace oracle

std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted_txns(
    std::span<const Transaction> txns) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (const Transaction& t : txns) out.emplace_back(t.base, t.bytes);
  std::sort(out.begin(), out.end());
  return out;
}

/// One seeded random slot: a lane subset (possibly empty, possibly all 32)
/// in increasing or shuffled order, with word-aligned addresses drawn from
/// one of several patterns (in-order, shifted, permuted, broadcast,
/// clustered, scattered).
std::vector<LaneAccess> random_slot(Xoshiro256& rng, std::uint32_t word_bytes) {
  std::vector<std::uint32_t> lanes;
  const std::uint64_t shape = rng.uniform(6);
  for (std::uint32_t l = 0; l < 32; ++l) {
    const bool keep = shape == 0   ? false
                      : shape <= 2 ? true
                                   : rng.uniform(4) != 0;
    if (keep) lanes.push_back(l);
  }
  const std::uint64_t wb = word_bytes;
  const std::uint64_t base = rng.uniform(1 << 12) * 16 * wb;
  const std::uint64_t pattern = rng.uniform(6);
  std::vector<LaneAccess> slot;
  for (const std::uint32_t l : lanes) {
    std::uint64_t addr = 0;
    switch (pattern) {
      case 0:  // k-th lane reads the k-th word
        addr = base + l * wb;
        break;
      case 1:  // shifted by a few words
        addr = base + (l + 1 + rng.uniform(3)) * wb;
        break;
      case 2:  // permuted within the half-warp's segment
        addr = base + ((l & 16u) + ((l * 7 + 3) & 15u)) * wb;
        break;
      case 3:  // broadcast of one word
        addr = base;
        break;
      case 4:  // clustered in a few nearby segments
        addr = base + rng.uniform(512 / wb) * wb;
        break;
      default:  // scattered
        addr = rng.uniform(1 << 20) * wb;
        break;
    }
    slot.push_back({l, addr});
  }
  if (rng.uniform(2) == 0) {
    for (std::size_t i = slot.size(); i > 1; --i)
      std::swap(slot[i - 1], slot[rng.uniform(i)]);
  }
  return slot;
}

TEST(CoalesceDifferential, MatchesReferenceOnRandomSlots) {
  const ComputeCapability ccs[] = {
      ComputeCapability::k10, ComputeCapability::k11, ComputeCapability::k12,
      ComputeCapability::k13, ComputeCapability::k20};
  const std::uint32_t word_sizes[] = {1, 2, 4, 8, 16};
  Xoshiro256 rng(20130520);
  std::size_t full_warps = 0, empty_slots = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::uint32_t wb = word_sizes[rng.uniform(5)];
    const std::vector<LaneAccess> slot = random_slot(rng, wb);
    full_warps += slot.size() == 32;
    empty_slots += slot.empty();
    for (const ComputeCapability cc : ccs) {
      const SlotCoalesce got = coalesce_slot(cc, slot, wb);
      const std::vector<Transaction> want = oracle::coalesce(cc, slot, wb);
      ASSERT_EQ(got.count, want.size()) << "trial " << trial;
      ASSERT_EQ(sorted_txns(got.transactions()), sorted_txns(want))
          << "trial " << trial;
      std::uint64_t want_bytes = 0;
      for (const Transaction& t : want) want_bytes += t.bytes;
      ASSERT_EQ(got.bytes, want_bytes) << "trial " << trial;
      ASSERT_EQ(got.ideal, oracle::ideal(cc, slot, wb)) << "trial " << trial;
    }
  }
  EXPECT_GT(full_warps, 0u);
  EXPECT_GT(empty_slots, 0u);
}

TEST(CoalesceDifferential, LaneOrderDoesNotMatter) {
  // The executor feeds lanes in increasing order; any other order of the
  // same accesses must give the same slot.
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<LaneAccess> slot = random_slot(rng, 4);
    std::sort(slot.begin(), slot.end(),
              [](const LaneAccess& a, const LaneAccess& b) {
                return a.lane < b.lane;
              });
    std::vector<LaneAccess> reversed(slot.rbegin(), slot.rend());
    for (const auto cc : {ComputeCapability::k10, ComputeCapability::k13,
                          ComputeCapability::k20}) {
      const SlotCoalesce a = coalesce_slot(cc, slot, 4);
      const SlotCoalesce b = coalesce_slot(cc, reversed, 4);
      ASSERT_EQ(sorted_txns(a.transactions()), sorted_txns(b.transactions()));
      ASSERT_EQ(a.ideal, b.ideal);
    }
  }
}

}  // namespace
}  // namespace lgg::gpusim
