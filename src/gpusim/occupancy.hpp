// CUDA occupancy calculator for the simulated devices.
//
// Occupancy — resident warps per SM over the hardware maximum — governs
// how much global-memory latency the executor's timing model can hide
// (its `resident` divisor), which is the Hong et al. warp-efficiency
// concern the paper's Section II surveys.  This reimplements the classic
// spreadsheet: the resident block count is limited by warp slots, block
// slots, thread slots, the register file, and shared memory.
#pragma once

#include <cstdint>

#include "gpusim/device.hpp"

namespace lgg::gpusim {

struct KernelResources {
  std::uint32_t threads_per_block = 128;
  std::uint32_t registers_per_thread = 16;
  std::uint32_t shared_bytes_per_block = 0;
};

enum class OccupancyLimiter : int {
  kWarpSlots = 0,
  kBlockSlots = 1,
  kThreadSlots = 2,
  kRegisters = 3,
  kSharedMemory = 4,
};

struct OccupancyResult {
  std::uint32_t blocks_per_sm = 0;
  std::uint32_t warps_per_sm = 0;
  double occupancy = 0.0;  // warps_per_sm / max_warps_per_sm
  OccupancyLimiter limiter = OccupancyLimiter::kWarpSlots;
};

/// Compute resident blocks/warps per SM for a kernel with the given
/// resource footprint.  Throws lgg::Error when the kernel cannot run at
/// all (a single block exceeds an SM's resources).
OccupancyResult occupancy(const DeviceSpec& dev, const KernelResources& res);

}  // namespace lgg::gpusim
