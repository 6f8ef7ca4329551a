// Device descriptions for the simulated CUDA substrate.
//
// The paper's Table I compares three Tesla boards; DeviceSpec carries those
// numbers plus the architectural parameters the memory model needs
// (partition count/width, warp size, clocks).  Values are from the paper
// and the NVIDIA CUDA C Programming Guide v3.2 / board datasheets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace lgg::gpusim {

/// CUDA compute capability relevant to the coalescing rules of Table III.
enum class ComputeCapability : int {
  k10 = 10,
  k11 = 11,
  k12 = 12,
  k13 = 13,
  k20 = 20,
};

[[nodiscard]] constexpr const char* to_string(ComputeCapability cc) noexcept {
  switch (cc) {
    case ComputeCapability::k10: return "1.0";
    case ComputeCapability::k11: return "1.1";
    case ComputeCapability::k12: return "1.2";
    case ComputeCapability::k13: return "1.3";
    case ComputeCapability::k20: return "2.0";
  }
  return "?";
}

struct DeviceSpec {
  std::string name;

  // --- Table I columns ---
  std::uint32_t cores = 0;             // total CUDA cores
  std::uint64_t global_mem_bytes = 0;  // DRAM size
  std::uint32_t shared_mem_bytes = 0;  // per SM
  std::uint32_t shared_banks = 16;     // 16 (CC 1.x) or 32 (CC 2.x)
  ComputeCapability cc = ComputeCapability::k13;

  // --- architectural parameters for the memory/execution model ---
  std::uint32_t sm_count = 0;          // streaming multiprocessors
  std::uint32_t warp_size = 32;
  std::uint32_t max_warps_per_sm = 32; // occupancy ceiling
  std::uint32_t max_blocks_per_sm = 8;
  std::uint32_t max_threads_per_sm = 1024;
  std::uint32_t registers_per_sm = 16384;  // 32-bit registers
  std::uint32_t partitions = 8;        // global-memory partitions
  std::uint32_t partition_width_bytes = 256;
  double core_clock_ghz = 1.3;         // shader clock
  double mem_bandwidth_gbps = 100.0;   // aggregate DRAM bandwidth (GB/s)
  std::uint32_t global_latency_cycles = 500;
  std::uint32_t shared_latency_cycles = 4;
  double pcie_bandwidth_gbps = 3.0;    // effective host<->device
  double pcie_latency_s = 10e-6;

  [[nodiscard]] std::uint32_t cores_per_sm() const noexcept {
    return sm_count ? cores / sm_count : 0;
  }
  [[nodiscard]] std::uint64_t shared_mem_bits() const noexcept {
    return std::uint64_t{8} * shared_mem_bytes;
  }
  [[nodiscard]] std::uint64_t global_mem_bits() const noexcept {
    return std::uint64_t{8} * global_mem_bytes;
  }
  /// True when global loads go through an L1/L2 cache (CC >= 2.0), which
  /// is what neutralises partition camping on Fermi (paper Section X).
  [[nodiscard]] bool has_cached_global() const noexcept {
    return cc >= ComputeCapability::k20;
  }
};

/// Table I boards the drivers and benches name directly; the C2070 is
/// reached through known_devices() or device_by_name().
const DeviceSpec& tesla_c1060();
const DeviceSpec& tesla_c2050();

/// All known devices, Table I order.
std::span<const DeviceSpec> known_devices();

/// Lookup by name ("C1060", case-insensitive); throws lgg::Error if absent.
const DeviceSpec& device_by_name(std::string_view name);

}  // namespace lgg::gpusim
