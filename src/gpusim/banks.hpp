// Shared-memory bank-conflict model (paper Sections III–IV, Eq. 9).
//
// Shared memory is split into 16 (CC 1.x) or 32 (CC 2.x) banks of 32-bit
// words; successive words live in successive banks.  A half-warp's access
// is serialised by the maximum number of DISTINCT words requested from one
// bank; all lanes reading the SAME word is a broadcast and costs one step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace lgg::gpusim {

/// Bank serving byte address `addr` with `banks` 4-byte-wide banks.
[[nodiscard]] constexpr std::uint32_t bank_of(std::uint64_t addr,
                                              std::uint32_t banks) noexcept {
  return static_cast<std::uint32_t>((addr / 4) % banks);
}

/// Most addresses one bank_conflict_degree call takes: a full warp.
inline constexpr std::size_t kMaxBankAccesses = 32;

/// Serialisation degree of one half-warp's shared-memory access: the
/// maximum over banks of the number of distinct words requested from that
/// bank.  Returns 1 for conflict-free or pure-broadcast patterns, and 0
/// when no lane accesses shared memory.  Takes at most kMaxBankAccesses
/// addresses and works in fixed stack storage (no allocation).
std::uint32_t bank_conflict_degree(std::span<const std::uint64_t> addrs,
                                   std::uint32_t banks);

}  // namespace lgg::gpusim
