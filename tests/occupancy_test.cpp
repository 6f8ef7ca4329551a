#include <gtest/gtest.h>

#include <string>

#include "gpusim/occupancy.hpp"
#include "util/error.hpp"

namespace lgg::gpusim {
namespace {

KernelResources res(std::uint32_t tpb, std::uint32_t regs,
                    std::uint32_t shared) {
  return {tpb, regs, shared};
}

TEST(Occupancy, FullOccupancyLightKernel) {
  // 128 threads, 16 regs, no shared: C1060 fits 8 blocks = 32 warps = 1.0?
  // 8 blocks * 128 threads = 1024 threads = 32 warps: exactly the cap.
  const OccupancyResult r = occupancy(tesla_c1060(), res(128, 4, 0));
  EXPECT_EQ(r.blocks_per_sm, 8u);
  EXPECT_EQ(r.warps_per_sm, 32u);
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

TEST(Occupancy, RegisterLimited) {
  // 16384 regs / (32 regs * 256 threads) = 2 blocks -> 16 warps of 32.
  const OccupancyResult r = occupancy(tesla_c1060(), res(256, 32, 0));
  EXPECT_EQ(r.blocks_per_sm, 2u);
  EXPECT_EQ(r.limiter, OccupancyLimiter::kRegisters);
  EXPECT_DOUBLE_EQ(r.occupancy, 0.5);
}

TEST(Occupancy, SharedMemoryLimited) {
  // 16 KiB shared / 6 KiB per block = 2 blocks.
  const OccupancyResult r = occupancy(tesla_c1060(), res(64, 8, 6 * 1024));
  EXPECT_EQ(r.blocks_per_sm, 2u);
  EXPECT_EQ(r.limiter, OccupancyLimiter::kSharedMemory);
}

TEST(Occupancy, BlockSlotLimited) {
  // Tiny blocks: 32 threads -> warp slots allow 32 blocks but hardware
  // caps at 8 resident blocks.
  const OccupancyResult r = occupancy(tesla_c1060(), res(32, 4, 0));
  EXPECT_EQ(r.blocks_per_sm, 8u);
  EXPECT_EQ(r.limiter, OccupancyLimiter::kBlockSlots);
  EXPECT_DOUBLE_EQ(r.occupancy, 0.25);  // 8 warps of 32
}

TEST(Occupancy, ThreadSlotLimitOnFermi) {
  // C2050: 1536 threads / 512 per block = 3 blocks = 48 warps (full).
  const OccupancyResult r = occupancy(tesla_c2050(), res(512, 16, 0));
  EXPECT_EQ(r.blocks_per_sm, 3u);
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

TEST(Occupancy, ImpossibleKernelThrows) {
  // One block needs more shared memory than the SM has.
  EXPECT_THROW(occupancy(tesla_c1060(), res(128, 8, 32 * 1024)), lgg::Error);
  // Or more registers than the file.
  EXPECT_THROW(occupancy(tesla_c1060(), res(512, 124, 0)), lgg::Error);
  EXPECT_THROW(occupancy(tesla_c1060(), res(0, 8, 0)), lgg::Error);
}

TEST(Occupancy, LimiterNames) {
  // The launch error names the resource that admits no block.
  const auto error = [](const KernelResources& r) {
    try {
      (void)occupancy(tesla_c1060(), r);
    } catch (const lgg::Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(error(res(2048, 1, 0)).find("warp slots"), std::string::npos);
  EXPECT_NE(error(res(512, 124, 0)).find("registers"), std::string::npos);
  EXPECT_NE(error(res(128, 8, 32 * 1024)).find("shared memory"),
            std::string::npos);
}

TEST(Occupancy, MonotoneInRegisters) {
  double prev = 1.1;
  for (const std::uint32_t regs : {8u, 16u, 32u, 64u}) {
    const OccupancyResult r = occupancy(tesla_c1060(), res(128, regs, 0));
    EXPECT_LE(r.occupancy, prev);
    prev = r.occupancy;
  }
}

}  // namespace
}  // namespace lgg::gpusim
