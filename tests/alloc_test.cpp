// Pins the executor's allocation contract: with ExecPolicy::serial() and
// no inspector, a launch allocates a fixed, per-launch amount (shard state,
// worker scratch, the report) and nothing per warp or per slot.  A
// counting global operator new makes the count observable; the test
// compares a 4-warp and a 400-warp launch of the same kernel.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "gpusim/executor.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lgg::gpusim {
namespace {

/// Allocations made by one serial, uninspected launch of `blocks` blocks
/// of 128 threads (4 warps each).
std::uint64_t launch_allocations(const Simulator& sim, const KernelFn& kernel,
                                 std::uint32_t blocks) {
  const KernelConfig config{"alloc", blocks, 128};
  const std::uint64_t before = g_allocations.load();
  const KernelReport report =
      sim.run(kernel, config, ExecPolicy::serial());
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(report.warps, 4ull * blocks);
  return after - before;
}

/// A kernel that exercises every per-slot model: `reads` coalesced and
/// scattered global reads, bank-conflicting shared reads and compute.
KernelFn make_kernel(const Buffer& buf, int reads) {
  return [&buf, reads](const ThreadCtx& ctx, ThreadRecorder& rec) {
    for (int i = 0; i < reads; ++i) {
      const std::uint64_t word =
          i % 2 == 0 ? ctx.global_id : (ctx.global_id * 97 + i) % 4096;
      rec.global_read(buf, 4 * word % buf.bytes, 4);
      rec.shared_read(64ull * ((ctx.lane + i) % 16));
    }
    rec.compute(3);
  };
}

TEST(ReplayAllocations, PerLaunchOnlyIndependentOfWarpCount) {
  const Simulator sim(tesla_c1060());
  DeviceMemory mem(tesla_c1060());
  const Buffer buf = mem.alloc(1 << 16);
  const KernelFn kernel = make_kernel(buf, 8);
  (void)launch_allocations(sim, kernel, 1);  // warm any lazy state

  const std::uint64_t small = launch_allocations(sim, kernel, 1);
  const std::uint64_t large = launch_allocations(sim, kernel, 100);
  EXPECT_GT(small, 0u);  // per-launch state does allocate
  EXPECT_EQ(small, large) << "replay allocates per warp or per slot";
}

TEST(ReplayAllocations, TapesGrowOncePerLaunch) {
  // Tapes longer than the worker's initial reservation grow on the first
  // warp and keep that capacity for every later warp of the launch.
  const Simulator sim(tesla_c1060());
  DeviceMemory mem(tesla_c1060());
  const Buffer buf = mem.alloc(1 << 16);
  const KernelFn kernel = make_kernel(buf, 200);
  (void)launch_allocations(sim, kernel, 1);

  EXPECT_EQ(launch_allocations(sim, kernel, 1),
            launch_allocations(sim, kernel, 100));
}

}  // namespace
}  // namespace lgg::gpusim
