#include "gpusim/coalescing.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace lgg::gpusim {

namespace {

constexpr bool valid_word_bytes(std::uint32_t wb) {
  return wb == 1 || wb == 2 || wb == 4 || wb == 8 || wb == 16;
}

/// Throws the lgg::Error for the first check `a` fails in check_access.
/// Out of line, so the per-lane check stays small enough to inline.
[[noreturn]] void reject_access(const LaneAccess& a, std::uint32_t word_bytes,
                                std::uint32_t seen) {
  LGG_CHECK(a.lane < 32, "coalesce_slot: lane " << a.lane << " out of range");
  LGG_CHECK((seen >> a.lane & 1u) == 0,
            "coalesce_slot: lane " << a.lane << " accessed twice in a slot");
  LGG_THROW("coalesce_slot: address " << a.addr << " misaligned for word size "
                                      << word_bytes);
}

/// Validates one access and marks its lane in `seen`.  Distinct lanes < 32
/// bound every rule's output by kMaxSlotTransactions and each half-warp by
/// 16 lanes.  Word, segment and transaction sizes are powers of two, so
/// alignment is a mask test.  Returns whether the access is the first of
/// its half-warp.
inline bool check_access(const LaneAccess& a, std::uint32_t word_bytes,
                         std::uint32_t& seen) {
  if (a.lane >= 32 || (seen >> a.lane & 1u) != 0 ||
      (a.addr & (word_bytes - 1)) != 0) [[unlikely]]
    reject_access(a, word_bytes, seen);
  const std::uint32_t half_mask = 0xffffu << (a.lane & 16u);
  const bool first = (seen & half_mask) == 0;
  seen |= 1u << a.lane;
  return first;
}

void emit(SlotCoalesce& out, std::uint64_t base, std::uint32_t bytes) {
  out.txns[out.count++] = {base, bytes};
  out.bytes += bytes;
}

/// CC 1.0/1.1 half-warp rule: strict in-order aligned access or bust.
void coalesce_cc10(std::span<const LaneAccess> warp, std::uint32_t word_bytes,
                   std::uint32_t& seen, SlotCoalesce& out) {
  const std::uint64_t segment_bytes = 16ull * word_bytes;
  // Candidate segment base per half: base = addr - (lane-in-half)*wb.
  // Every lane must agree on it, so which lane proposes it is immaterial.
  std::uint64_t base[2] = {0, 0};
  bool coalesced[2] = {true, true};
  for (const LaneAccess& a : warp) {
    const bool first = check_access(a, word_bytes, seen);
    const std::uint32_t h = a.lane >> 4;
    const std::uint64_t offset =
        static_cast<std::uint64_t>(a.lane & 15u) * word_bytes;
    if (first) {
      base[h] = a.addr - offset;
      coalesced[h] = (base[h] & (segment_bytes - 1)) == 0;
    } else if (coalesced[h]) {
      coalesced[h] = a.addr == base[h] + offset;
    }
  }

  // Serialised halves: one transaction per active lane.  Tesla-era
  // hardware issues minimum 32-byte transfers for isolated words.
  const std::uint32_t txn_bytes = std::max<std::uint32_t>(word_bytes, 32);
  for (std::uint32_t h = 0; h < 2; ++h) {
    if ((seen >> (16 * h) & 0xffffu) == 0) continue;
    if (coalesced[h]) {
      emit(out, base[h], static_cast<std::uint32_t>(segment_bytes));
      continue;
    }
    for (const LaneAccess& a : warp)
      if (a.lane >> 4 == h)
        emit(out, a.addr & ~std::uint64_t{txn_bytes - 1}, txn_bytes);
  }
}

/// CC 1.2/1.3 half-warp rule: minimal covering aligned segments with
/// narrowing.  Base segment granularity is 128 bytes for 4/8/16-byte
/// words, 64 for 2-byte, 32 for 1-byte (Programming Guide G.3.2.2).
void coalesce_cc12(std::span<const LaneAccess> warp, std::uint32_t word_bytes,
                   std::uint32_t& seen, SlotCoalesce& out) {
  const unsigned seg_shift = word_bytes >= 4 ? 7 : (word_bytes == 2 ? 6 : 5);

  // Bucket each half-warp's words by base segment: a linear scan over at
  // most 16 buckets beats any map at this size.  Left uninitialised (this
  // runs once per slot): entries at or past used[h] are never read.
  struct Bucket {
    std::uint64_t id, lo, hi;
  };
  Bucket buckets[2][16];
  std::uint32_t used[2] = {0, 0};
  for (const LaneAccess& a : warp) {
    check_access(a, word_bytes, seen);
    const std::uint32_t h = a.lane >> 4;
    const std::uint64_t id = a.addr >> seg_shift;
    Bucket* const half = buckets[h];
    std::uint32_t k = 0;
    while (k < used[h] && half[k].id != id) ++k;
    if (k == used[h]) {
      half[k] = {id, a.addr, a.addr};
      ++used[h];
    } else {
      half[k].lo = std::min(half[k].lo, a.addr);
      half[k].hi = std::max(half[k].hi, a.addr);
    }
  }

  for (std::uint32_t h = 0; h < 2; ++h) {
    for (std::uint32_t k = 0; k < used[h]; ++k) {
      const Bucket& bucket = buckets[h][k];
      std::uint64_t b = bucket.id << seg_shift;
      std::uint64_t size = std::uint64_t{1} << seg_shift;
      const std::uint64_t last = bucket.hi + word_bytes - 1;
      // Narrow while both extremes sit in the same half of the segment.
      while (size > 32) {
        const std::uint64_t half_size = size / 2;
        if (last < b + half_size) {
          size = half_size;
        } else if (bucket.lo >= b + half_size) {
          b += half_size;
          size = half_size;
        } else {
          break;
        }
      }
      emit(out, b, static_cast<std::uint32_t>(size));
    }
  }
}

/// CC 2.0 warp rule: one transaction per distinct 128-byte L1 line.  An
/// aligned word of a valid size never straddles a line.
void coalesce_cc20(std::span<const LaneAccess> warp, std::uint32_t word_bytes,
                   std::uint32_t& seen, SlotCoalesce& out) {
  for (const LaneAccess& a : warp) {
    check_access(a, word_bytes, seen);
    const std::uint64_t base = a.addr & ~std::uint64_t{127};
    std::uint32_t k = 0;
    while (k < out.count && out.txns[k].base != base) ++k;
    if (k == out.count) emit(out, base, 128);
  }
}

}  // namespace

SlotCoalesce coalesce_slot(ComputeCapability cc,
                           std::span<const LaneAccess> accesses,
                           std::uint32_t word_bytes) {
  LGG_CHECK(valid_word_bytes(word_bytes),
            "coalesce_slot: invalid word size " << word_bytes);
  SlotCoalesce out;
  std::uint32_t seen = 0;  // lanes present in the slot
  if (cc >= ComputeCapability::k20) {
    coalesce_cc20(accesses, word_bytes, seen, out);
    const std::uint64_t need =
        static_cast<std::uint64_t>(accesses.size()) * word_bytes;
    out.ideal = accesses.empty()
                    ? 0
                    : static_cast<std::uint32_t>(
                          std::max<std::uint64_t>(1, (need + 127) / 128));
    return out;
  }

  if (cc <= ComputeCapability::k11)
    coalesce_cc10(accesses, word_bytes, seen, out);
  else
    coalesce_cc12(accesses, word_bytes, seen, out);
  // The floor is one aligned segment per non-empty half-warp.
  out.ideal = static_cast<std::uint32_t>((seen & 0xffffu) != 0) +
              static_cast<std::uint32_t>((seen >> 16) != 0);
  return out;
}

std::size_t warp_transaction_count(ComputeCapability cc,
                                   std::span<const std::uint64_t> lane_addrs,
                                   std::uint32_t word_bytes) {
  std::vector<LaneAccess> accesses;
  accesses.reserve(lane_addrs.size());
  for (std::uint32_t lane = 0; lane < lane_addrs.size(); ++lane)
    accesses.push_back({lane, lane_addrs[lane]});
  return coalesce_slot(cc, accesses, word_bytes).count;
}

}  // namespace lgg::gpusim
