// Simulated device global-memory address space.
//
// Kernels do not move real data through the simulator; what matters for the
// paper's claims is WHERE the data lives (addresses drive coalescing and
// partition mapping) and HOW MUCH moves (transfer timing).  DeviceMemory is
// a bump allocator over the DeviceSpec's global memory; Buffer is an
// address range a kernel derives access addresses from.  Actual payloads
// stay in ordinary host containers owned by the algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"

namespace lgg::gpusim {

/// An allocated range of simulated global memory.
struct Buffer {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;

  /// Simulated byte address of `offset` within the buffer.  Inline:
  /// every recorded access goes through here.  The bounds check stays in
  /// every build type; only its throw path is out of line.
  [[nodiscard]] std::uint64_t addr(std::uint64_t offset) const {
    if (offset >= bytes) [[unlikely]]
      out_of_range(offset);
    return base + offset;
  }

 private:
  /// Throws lgg::Error for an out-of-range addr() offset.
  [[noreturn]] void out_of_range(std::uint64_t offset) const;
};

/// One allocation event, kept for the lifetime of the DeviceMemory so the
/// sancheck tape analyzer can classify stray addresses: a `live` record is
/// a valid target, a dead one (retired by reset()) identifies
/// use-after-reset, and an address covered by neither was never allocated.
struct Allocation {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  bool live = true;
};

class DeviceMemory {
 public:
  /// `faults` (optional, non-owning) is consulted on every allocation;
  /// a firing hook makes the allocation throw DeviceFault (simulated
  /// transient OOM) without moving the bump cursor.
  explicit DeviceMemory(const DeviceSpec& spec, FaultHook* faults = nullptr);

  /// Allocate `bytes` aligned to `align` (power of two; default one
  /// partition stripe so layouts can place data in chosen partitions).
  /// Throws lgg::Error when the device is out of memory — this is the
  /// paper's Eq. (1)/(2) capacity constraint becoming operational.
  Buffer alloc(std::uint64_t bytes, std::uint64_t align = 256);

  /// Allocate at an address congruent to `partition_offset_bytes` modulo
  /// the partition period (partitions * width): lets the anti-camping
  /// layout pin each ALS block's base to a chosen partition (Fig. 9).
  Buffer alloc_in_partition(std::uint64_t bytes, std::uint32_t partition);

  [[nodiscard]] std::uint64_t used() const noexcept { return cursor_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const DeviceSpec& spec() const noexcept { return *spec_; }

  /// Every allocation ever made, in allocation order; entries retired by
  /// reset() stay with live == false (consumed by lgg::sancheck).
  [[nodiscard]] const std::vector<Allocation>& allocations() const noexcept {
    return allocations_;
  }

  /// Retire every live allocation and rewind the bump cursor.  Buffers
  /// handed out before the reset become stale; the sancheck tape analyzer
  /// flags accesses through them as use-after-reset.
  void reset() noexcept {
    cursor_ = 0;
    for (Allocation& a : allocations_) a.live = false;
  }

 private:
  const DeviceSpec* spec_;
  std::uint64_t capacity_;
  std::uint64_t cursor_ = 0;
  std::vector<Allocation> allocations_;
  FaultHook* faults_ = nullptr;
};

/// Host->device (or back) copy-time model: PCIe latency + bytes/bandwidth.
double transfer_time_s(const DeviceSpec& spec, std::uint64_t bytes);

}  // namespace lgg::gpusim
