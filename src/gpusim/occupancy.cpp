#include "gpusim/occupancy.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lgg::gpusim {

namespace {

/// The resource a limiter names in occupancy()'s launch error.
const char* limiter_name(OccupancyLimiter limiter) noexcept {
  switch (limiter) {
    case OccupancyLimiter::kWarpSlots:
      return "warp slots";
    case OccupancyLimiter::kBlockSlots:
      return "block slots";
    case OccupancyLimiter::kThreadSlots:
      return "thread slots";
    case OccupancyLimiter::kRegisters:
      return "registers";
    case OccupancyLimiter::kSharedMemory:
      return "shared memory";
  }
  return "?";
}

}  // namespace

OccupancyResult occupancy(const DeviceSpec& dev, const KernelResources& res) {
  LGG_CHECK(res.threads_per_block > 0, "occupancy: empty block");
  const std::uint32_t warps_per_block =
      (res.threads_per_block + dev.warp_size - 1) / dev.warp_size;

  struct Limit {
    std::uint32_t blocks;
    OccupancyLimiter kind;
  };
  Limit limits[5];
  limits[0] = {dev.max_warps_per_sm / warps_per_block,
               OccupancyLimiter::kWarpSlots};
  limits[1] = {dev.max_blocks_per_sm, OccupancyLimiter::kBlockSlots};
  limits[2] = {dev.max_threads_per_sm / res.threads_per_block,
               OccupancyLimiter::kThreadSlots};
  const std::uint64_t regs_per_block =
      static_cast<std::uint64_t>(res.registers_per_thread) *
      res.threads_per_block;
  limits[3] = {regs_per_block == 0
                   ? dev.max_blocks_per_sm
                   : static_cast<std::uint32_t>(
                         std::min<std::uint64_t>(dev.registers_per_sm /
                                                     regs_per_block,
                                                 dev.max_blocks_per_sm)),
               OccupancyLimiter::kRegisters};
  limits[4] = {res.shared_bytes_per_block == 0
                   ? dev.max_blocks_per_sm
                   : dev.shared_mem_bytes / res.shared_bytes_per_block,
               OccupancyLimiter::kSharedMemory};

  OccupancyResult result;
  result.blocks_per_sm = limits[0].blocks;
  result.limiter = limits[0].kind;
  for (const Limit& limit : limits) {
    if (limit.blocks < result.blocks_per_sm) {
      result.blocks_per_sm = limit.blocks;
      result.limiter = limit.kind;
    }
  }
  LGG_CHECK(result.blocks_per_sm > 0,
            "kernel cannot launch on "
                << dev.name << ": one block exceeds the SM's "
                << limiter_name(result.limiter));
  result.warps_per_sm = result.blocks_per_sm * warps_per_block;
  result.occupancy = static_cast<double>(result.warps_per_sm) /
                     static_cast<double>(dev.max_warps_per_sm);
  return result;
}

}  // namespace lgg::gpusim
