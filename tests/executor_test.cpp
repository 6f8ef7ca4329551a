#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "gpusim/calibration.hpp"
#include "gpusim/executor.hpp"
#include "util/error.hpp"

namespace lgg::gpusim {
namespace {

namespace cal = calibration;

TEST(Executor, RunsEveryThreadExactlyOnce) {
  const Simulator sim(tesla_c1060());
  // The default policy replays warps on multiple host threads, so the
  // test collects contexts under a mutex and asserts afterwards.
  std::mutex mu;
  std::vector<ThreadCtx> seen;
  KernelConfig cfg{"ids", 4, 96};
  sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder&) {
        const std::lock_guard lock(mu);
        seen.push_back(ctx);
      },
      cfg);
  ASSERT_EQ(seen.size(), 4u * 96);
  std::set<std::uint64_t> ids;
  for (const ThreadCtx& ctx : seen) {
    EXPECT_TRUE(ids.insert(ctx.global_id).second);
    EXPECT_EQ(ctx.global_id,
              static_cast<std::uint64_t>(ctx.block) * 96 + ctx.thread);
    EXPECT_EQ(ctx.lane, ctx.thread % 32);
    EXPECT_EQ(ctx.warp, ctx.thread / 32);
    EXPECT_EQ(ctx.global_warp, static_cast<std::uint64_t>(ctx.block) *
                                       cfg.warps_per_block(32) +
                                   ctx.warp);
  }
  EXPECT_EQ(ids.size(), 4u * 96);
}

TEST(Executor, ReportShapeBasics) {
  const Simulator sim(tesla_c1060());
  DeviceMemory mem(tesla_c1060());
  const Buffer buf = mem.alloc(1 << 20);
  KernelConfig cfg{"seq", 2, 64};
  const KernelReport r = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.global_read(buf, 4ull * ctx.global_id, 4);
        rec.compute(10);
      },
      cfg);
  EXPECT_EQ(r.warps, 4u);
  EXPECT_EQ(r.global_slots, 4u);  // one slot per warp
  // Fully sequential aligned reads on CC 1.3: 2 transactions per warp slot.
  EXPECT_EQ(r.transactions, 8u);
  EXPECT_EQ(r.bytes, 8u * 64);
  EXPECT_GT(r.kernel_time_s, 0.0);
  EXPECT_EQ(r.sample_fraction, 1.0);
}

TEST(Executor, ScatteredReadsCostMoreTransactions) {
  const Simulator sim(tesla_c1060());
  DeviceMemory mem(tesla_c1060());
  const Buffer buf = mem.alloc(1 << 24);
  KernelConfig cfg{"scatter", 2, 64};
  const KernelReport seq = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.global_read(buf, 4ull * ctx.global_id, 4);
      },
      cfg);
  const KernelReport scat = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.global_read(buf, 4096ull * ctx.global_id, 4);
      },
      cfg);
  EXPECT_GT(scat.transactions, seq.transactions);
  EXPECT_GT(scat.transactions_per_slot(), seq.transactions_per_slot());
}

TEST(Executor, CampingShowsUpInReport) {
  const Simulator sim(tesla_c1060());
  DeviceMemory mem(tesla_c1060());
  const Buffer buf = mem.alloc(1 << 24);
  KernelConfig cfg{"camp", 8, 32};
  // Every warp reads from partition 0 (stride = full partition period).
  const KernelReport camped = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.global_read(buf, 2048ull * ctx.global_id * 32 % (1 << 24), 4);
      },
      cfg);
  EXPECT_GT(camped.camping_factor, 2.0);
  // Spread reads across partitions via 256-byte stride per warp.
  const KernelReport spread = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        const std::uint64_t warp_id = ctx.global_id / 32;
        rec.global_read(buf, (warp_id * 256 + ctx.lane * 4) % (1 << 24), 4);
      },
      cfg);
  EXPECT_LT(spread.camping_factor, camped.camping_factor);
  EXPECT_LE(spread.dram_cycles, camped.dram_cycles);
}

TEST(Executor, CachedDeviceNeutralisesCamping) {
  DeviceMemory mem(tesla_c2050());
  const Buffer buf = mem.alloc(1 << 24);
  KernelConfig cfg{"camp20", 8, 32};
  const auto kernel = [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
    rec.global_read(buf, 2048ull * ctx.global_id * 32 % (1 << 24), 4);
  };
  const KernelReport fermi = Simulator(tesla_c2050()).run(kernel, cfg);
  // CC 2.0 prices DRAM at the ideal spread regardless of the histogram.
  EXPECT_NEAR(fermi.dram_cycles,
              static_cast<double>(fermi.partition_histogram.ideal_steps()) *
                  cal::kTransactionServiceCycles,
              1.0);
}

TEST(Executor, BankConflictsCharged) {
  const Simulator sim(tesla_c1060());
  KernelConfig cfg{"banks", 1, 32};
  const KernelReport free = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.shared_read(4ull * ctx.lane);
      },
      cfg);
  const KernelReport conflicted = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.shared_read(64ull * ctx.lane);  // 16-way conflict
      },
      cfg);
  EXPECT_EQ(free.shared_slots, 1u);
  EXPECT_EQ(free.bank_conflict_steps, 2u);  // two half-warps, one step each
  EXPECT_EQ(conflicted.bank_conflict_steps, 32u);
  EXPECT_GT(conflicted.compute_cycles, free.compute_cycles);
}

TEST(Executor, ComputeOnlyKernelTimeScalesWithWork) {
  const Simulator sim(tesla_c1060());
  KernelConfig cfg{"compute", 30, 32};
  const auto light = sim.run(
      [](const ThreadCtx&, ThreadRecorder& rec) { rec.compute(100); }, cfg);
  const auto heavy = sim.run(
      [](const ThreadCtx&, ThreadRecorder& rec) { rec.compute(1000); }, cfg);
  EXPECT_NEAR(heavy.compute_cycles / light.compute_cycles, 10.0, 0.01);
  EXPECT_GT(heavy.kernel_time_s, light.kernel_time_s);
}

TEST(Executor, LaunchValidation) {
  const Simulator sim(tesla_c1060());
  const KernelFn noop = [](const ThreadCtx&, ThreadRecorder&) {};
  EXPECT_THROW(sim.run(noop, {"bad", 0, 32}), lgg::Error);
  EXPECT_THROW(sim.run(noop, {"bad", 1, 0}), lgg::Error);
  EXPECT_THROW(sim.run(noop, {"bad", 1, 2048}), lgg::Error);
}

TEST(Executor, LaunchOverheadFloor) {
  const Simulator sim(tesla_c1060());
  const KernelReport r =
      sim.run([](const ThreadCtx&, ThreadRecorder&) {}, {"noop", 1, 32});
  EXPECT_GE(r.kernel_time_s, cal::kKernelLaunchOverheadS);
}

TEST(Executor, TransferReportMatchesModel) {
  const Simulator sim(tesla_c1060());
  const TransferReport t = sim.transfer(1 << 20);
  EXPECT_EQ(t.bytes, 1u << 20);
  EXPECT_DOUBLE_EQ(t.time_s, transfer_time_s(tesla_c1060(), 1 << 20));
}

TEST(Executor, PartialWarpHandled) {
  const Simulator sim(tesla_c1060());
  std::atomic<std::uint32_t> calls{0};
  sim.run([&](const ThreadCtx&, ThreadRecorder&) { ++calls; },
          {"partial", 1, 40});  // 1 full warp + 8 lanes
  EXPECT_EQ(calls.load(), 40u);
}

}  // namespace
}  // namespace lgg::gpusim
