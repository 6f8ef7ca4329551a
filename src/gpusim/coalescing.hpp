// Global-memory access coalescing rules (paper Section IX, Table III),
// implemented per CUDA C Programming Guide v3.2, Appendix G:
//
//  * CC 1.0/1.1 — per HALF-warp.  One transaction iff the k-th active lane
//    reads the k-th word of a naturally aligned segment (16 * word_bytes);
//    lanes may be inactive, but no permutation.  Otherwise the half-warp
//    is serialised: one transaction per active lane.
//  * CC 1.2/1.3 — per HALF-warp.  Hardware finds the minimal set of
//    aligned segments covering the requested words; a 128-byte segment is
//    narrowed to 64/32 bytes when only one half/quarter is touched.
//    Permutations within a segment cost nothing.
//  * CC 2.0   — per WARP, through the L1 cache: one transaction per
//    distinct 128-byte line.
//
// These rules reproduce the paper's Table III exactly (see
// bench_table3_coalescing and the unit tests).
//
// coalesce_slot is the one implementation and the simulator's per-slot hot
// path: it works in fixed-size stack storage (DESIGN.md §8) and never
// allocates.  warp_transaction_count is a thin wrapper for the Table III
// tests and bench.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "gpusim/device.hpp"

namespace lgg::gpusim {

/// One lane's memory request: which lane issued it and the byte address.
/// Inactive lanes are simply absent from the span.
struct LaneAccess {
  std::uint32_t lane = 0;  // 0..31 within the warp
  std::uint64_t addr = 0;  // simulated global byte address
};

/// One memory transaction produced by the coalescer.  No default member
/// initialisers: SlotCoalesce keeps 32 of these in stack storage and fills
/// only the first `count`, so zeroing them per slot would be wasted work.
struct Transaction {
  std::uint64_t base;   // segment base address
  std::uint32_t bytes;  // segment size actually transferred
};

/// Upper bound on the transactions of one warp slot.  Every rule issues at
/// most one transaction per active lane (a valid word never straddles a
/// 128-byte line, so CC 2.0 too), and a slot has at most 32 distinct lanes.
inline constexpr std::uint32_t kMaxSlotTransactions = 32;

/// Everything the executor prices from one warp slot, in fixed storage.
struct SlotCoalesce {
  std::uint32_t count = 0;  // transactions issued
  /// CC-minimal transactions for the active lanes (Table III floor): one
  /// aligned segment per non-empty half-warp below CC 2.0, else
  /// ceil(active_lanes * word_bytes / 128) cache lines.
  std::uint32_t ideal = 0;
  std::uint64_t bytes = 0;  // bytes transferred
  /// The first `count` entries; their bases are the partition increments.
  std::array<Transaction, kMaxSlotTransactions> txns;

  [[nodiscard]] std::span<const Transaction> transactions() const noexcept {
    return {txns.data(), count};
  }
};

/// Coalesce one warp slot of `word_bytes`-sized accesses (1, 2, 4, 8 or
/// 16).  Lanes must be distinct and < 32; any lane order is accepted and
/// gives the same count, bytes and transaction multiset.  For CC < 2.0 the
/// warp is processed as two independent half-warps (lanes 0-15 and
/// 16-31), matching the hardware.
SlotCoalesce coalesce_slot(ComputeCapability cc,
                           std::span<const LaneAccess> accesses,
                           std::uint32_t word_bytes);

/// Convenience for tests/benches: transaction count for a full 32-lane
/// warp reading `word_bytes` words at the given per-lane addresses.
std::size_t warp_transaction_count(ComputeCapability cc,
                                   std::span<const std::uint64_t> lane_addrs,
                                   std::uint32_t word_bytes);

}  // namespace lgg::gpusim
