// lgg::sancheck — hazard classification on seeded-bug kernels, hazard
// freedom of every shipping kernel under SancheckMode::kStrict, report
// determinism across host thread counts, and the static footprint lint
// (positive proofs and refutations).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/als_plan.hpp"
#include "core/bfs_gpu.hpp"
#include "core/hybrid.hpp"
#include "core/intersect_gpu.hpp"
#include "core/subgraph_gpu.hpp"
#include "core/triangle_cpu.hpp"
#include "core/triangle_gpu.hpp"
#include "graph/generators.hpp"
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "sancheck/footprint.hpp"
#include "sancheck/sancheck.hpp"
#include "util/error.hpp"

namespace lgg::sancheck {
namespace {

using gpusim::Buffer;
using gpusim::DeviceMemory;
using gpusim::ExecPolicy;
using gpusim::HazardClass;
using gpusim::HazardReport;
using gpusim::KernelConfig;
using gpusim::KernelFn;
using gpusim::Simulator;
using gpusim::ThreadCtx;
using gpusim::ThreadRecorder;

/// Run `kernel` under a kReport analyzer and return the hazards.
HazardReport analyze(const KernelFn& kernel, const KernelConfig& config,
                     DeviceMemory& mem, std::vector<Buffer> staged = {},
                     const ExecPolicy& policy = ExecPolicy::serial()) {
  const Simulator sim(mem.spec());
  SancheckConfig sc;
  sc.mode = SancheckMode::kReport;
  sc.staged = std::move(staged);
  const TapeAnalyzer analyzer(std::move(sc), mem);
  return sim.run(kernel, config, policy, &analyzer).hazards;
}

// ---------------------------------------------------------------------------
// Seeded-bug kernels: each hazard class must be flagged, and only it.

TEST(TapeAnalyzer, FlagsStraddlingReadAsOutOfBounds) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer buf = mem.alloc(62);  // deliberately not a word multiple
  const HazardReport r = analyze(
      [&](const ThreadCtx&, ThreadRecorder& rec) {
        rec.global_read(buf, 60, 4);  // last 2 bytes spill past the end
      },
      {"oob", 1, 32}, mem, {buf});
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.count(HazardClass::kOutOfBounds), 1u);
  EXPECT_EQ(r.total, r.count(HazardClass::kOutOfBounds));
}

TEST(TapeAnalyzer, FlagsReadPastCapacityAsOutOfBounds) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer rogue{mem.capacity() - 4, 64};  // fabricated, not allocated
  const HazardReport r = analyze(
      [&](const ThreadCtx&, ThreadRecorder& rec) {
        rec.global_read(rogue, 4, 4);  // word starting AT device capacity
      },
      {"capacity", 1, 32}, mem);
  EXPECT_EQ(r.count(HazardClass::kOutOfBounds), 1u);
  EXPECT_EQ(r.total, 1u);
}

TEST(TapeAnalyzer, ClassifiesUseBeforeAlloc) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer buf = mem.alloc(64);
  const Buffer rogue{buf.base + (1ull << 20), 64};  // in capacity, never handed out
  const HazardReport r = analyze(
      [&](const ThreadCtx&, ThreadRecorder& rec) {
        rec.global_read(rogue, 0, 4);
      },
      {"uba", 1, 32}, mem, {buf});
  EXPECT_EQ(r.count(HazardClass::kUseBeforeAlloc), 1u);
  EXPECT_EQ(r.total, 1u);
}

TEST(TapeAnalyzer, ClassifiesUseAfterReset) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer stale = mem.alloc(4096);
  mem.reset();
  const Buffer fresh = mem.alloc(64);  // overlaps the head of `stale`
  const HazardReport r = analyze(
      [&](const ThreadCtx&, ThreadRecorder& rec) {
        // Beyond `fresh`, so only the retired allocation covers it.
        rec.global_read(stale, 2048, 4);
      },
      {"uar", 1, 32}, mem, {fresh});
  EXPECT_EQ(r.count(HazardClass::kUseAfterReset), 1u);
  EXPECT_EQ(r.total, 1u);
}

TEST(TapeAnalyzer, FlagsUninitializedRead) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer staged = mem.alloc(256);
  const Buffer scratch = mem.alloc(256);  // allocated but never staged
  const HazardReport r = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        if (ctx.thread != 0) return;
        rec.global_read(staged, 16, 4);   // staged: fine
        rec.global_read(scratch, 16, 4);  // neither staged nor written
      },
      {"uninit", 1, 32}, mem, {staged});
  EXPECT_EQ(r.count(HazardClass::kUninitRead), 1u);
  EXPECT_EQ(r.total, 1u);
}

TEST(TapeAnalyzer, WriteAnywhereInLaunchInitialises) {
  // Shadow model is order-favorable: a cell written by ANY thread of the
  // launch is initialised for every reader (no false positives from the
  // untracked intra-launch schedule).
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer scratch = mem.alloc(256);
  const HazardReport r = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        if (ctx.thread == 31)
          rec.global_write(scratch, 16, 4);
        else
          rec.global_read(scratch, 16, 4);
      },
      {"wr", 1, 32}, mem);
  EXPECT_TRUE(r.clean()) << r;
}

TEST(TapeAnalyzer, FlagsSharedMemoryRace) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const HazardReport r = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        if (ctx.thread == 0)
          rec.shared_write(0);
        else
          rec.shared_read(0);  // same word, same epoch: race
      },
      {"race", 1, 64}, mem);
  EXPECT_GE(r.count(HazardClass::kSharedRace), 1u);
  EXPECT_EQ(r.total, r.count(HazardClass::kSharedRace));
}

TEST(TapeAnalyzer, SyncSeparatesSharedPhases) {
  // The same write-then-read pattern is clean once a sync (simulated
  // __syncthreads) splits the epochs — the hybrid kernel's staging shape.
  DeviceMemory mem(gpusim::tesla_c1060());
  const HazardReport r = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.shared_write(ctx.thread * 4ull);
        rec.sync();
        rec.shared_read(0);
      },
      {"sync", 1, 64}, mem);
  EXPECT_TRUE(r.clean()) << r;
}

TEST(TapeAnalyzer, SharedStateIsPerBlock) {
  // One writer per block on the same shared address: blocks have private
  // shared memories, so this cannot race.
  DeviceMemory mem(gpusim::tesla_c1060());
  const HazardReport r = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        if (ctx.thread == 0) rec.shared_write(0);
      },
      {"blocks", 4, 32}, mem);
  EXPECT_TRUE(r.clean()) << r;
}

TEST(TapeAnalyzer, FlagsCrossWarpWriteConflict) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer out = mem.alloc(256);
  const HazardReport r = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        if (ctx.lane == 0) rec.global_write(out, 0, 4);  // both warps
      },
      {"conflict", 1, 64}, mem);
  EXPECT_EQ(r.count(HazardClass::kGlobalWriteConflict), 1u);
  EXPECT_EQ(r.total, 1u);
}

TEST(TapeAnalyzer, SameWarpWritesDoNotConflict) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer out = mem.alloc(256);
  const HazardReport r = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        rec.global_write(out, ctx.warp * 4ull, 4);  // one word per warp
      },
      {"per-warp", 1, 96}, mem);
  EXPECT_TRUE(r.clean()) << r;
}

TEST(TapeAnalyzer, AtomicsAreExemptFromWriteConflicts) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer out = mem.alloc(256);
  const HazardReport atomic_only = analyze(
      [&](const ThreadCtx&, ThreadRecorder& rec) {
        rec.global_atomic(out, 0, 4);  // every thread, every warp
      },
      {"atomics", 2, 64}, mem);
  EXPECT_TRUE(atomic_only.clean()) << atomic_only;

  // ...but a PLAIN write still conflicts with another warp's atomic.
  const HazardReport mixed = analyze(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        if (ctx.global_warp == 0 && ctx.lane == 0)
          rec.global_write(out, 0, 4);
        else if (ctx.lane == 0)
          rec.global_atomic(out, 0, 4);
      },
      {"mixed", 1, 64}, mem);
  EXPECT_EQ(mixed.count(HazardClass::kGlobalWriteConflict), 1u);
}

TEST(TapeAnalyzer, HazardSitesAreDedupedPerLaunch) {
  // 128 threads x 4 repeats over one bad cell is ONE hazard site.
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer scratch = mem.alloc(256);
  const HazardReport r = analyze(
      [&](const ThreadCtx&, ThreadRecorder& rec) {
        for (int i = 0; i < 4; ++i) rec.global_read(scratch, 8, 4);
      },
      {"dedup", 1, 128}, mem);
  EXPECT_EQ(r.count(HazardClass::kUninitRead), 1u);
  EXPECT_EQ(r.total, 1u);
}

TEST(TapeAnalyzer, StrictModeThrowsOnFirstHazard) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer scratch = mem.alloc(64);
  const Simulator sim(mem.spec());
  SancheckConfig sc;
  sc.mode = SancheckMode::kStrict;
  const TapeAnalyzer analyzer(std::move(sc), mem);
  const KernelFn bad = [&](const ThreadCtx&, ThreadRecorder& rec) {
    rec.global_read(scratch, 0, 4);  // uninitialised
  };
  EXPECT_THROW(
      sim.run(bad, {"strict", 1, 32}, ExecPolicy::serial(), &analyzer),
      lgg::Error);
  // Same kernel, clean when the buffer is staged.
  SancheckConfig ok;
  ok.mode = SancheckMode::kStrict;
  ok.staged = {scratch};
  const TapeAnalyzer lenient(std::move(ok), mem);
  EXPECT_NO_THROW(
      sim.run(bad, {"strict", 1, 32}, ExecPolicy::serial(), &lenient));
}

// ---------------------------------------------------------------------------
// Determinism: the HazardReport must be bit-identical across host thread
// counts and executor policies (same contract as the KernelReport).

void expect_hazards_identical(const HazardReport& a, const HazardReport& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.by_class, b.by_class);
  ASSERT_EQ(a.hazards.size(), b.hazards.size());
  for (std::size_t i = 0; i < a.hazards.size(); ++i)
    EXPECT_EQ(a.hazards[i], b.hazards[i]) << "hazard " << i;
}

TEST(TapeAnalyzer, ReportBitIdenticalAcrossThreadCounts) {
  DeviceMemory mem(gpusim::tesla_c1060());
  const Buffer staged = mem.alloc(1 << 16);
  const Buffer scratch = mem.alloc(1 << 16);
  // A hazard-rich kernel: scattered uninitialised reads, cross-warp write
  // conflicts on a shared cell, and an intra-block shared race.
  const KernelFn kernel = [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
    const std::uint64_t salt = ctx.global_id * 2654435761u;
    rec.global_read(staged, salt % ((1 << 16) - 4) / 4 * 4, 4);
    if (ctx.global_id % 3 == 0)
      rec.global_read(scratch, salt % ((1 << 16) - 4) / 4 * 4, 4);
    if (ctx.lane == 1) rec.global_write(scratch, 0, 4);
    if (ctx.thread < 2) rec.shared_write(0);
    rec.sync();
    rec.shared_read(4 * (ctx.thread % 16));
  };
  const KernelConfig cfg{"det", 5, 96};
  const HazardReport serial =
      analyze(kernel, cfg, mem, {staged}, ExecPolicy::serial());
  EXPECT_FALSE(serial.clean());
  for (const std::size_t threads : {1u, 2u, 5u, 13u}) {
    SCOPED_TRACE("threads" + std::to_string(threads));
    const HazardReport parallel =
        analyze(kernel, cfg, mem, {staged}, ExecPolicy::parallel(threads));
    expect_hazards_identical(serial, parallel);
  }
}

// ---------------------------------------------------------------------------
// Every shipping kernel must be hazard-free under kStrict, serial and
// parallel, full and sampled.

TEST(StrictShipping, TriangleKernelsAllLayoutsCleanUnderStrict) {
  const graph::Graph g = graph::layered_random(220, 40, 0.10, 0.05, 11);
  const std::uint64_t expected = core::count_triangles_forward(g);
  for (const auto layout :
       {core::GpuLayout::kNaive, core::GpuLayout::kCoalesced,
        core::GpuLayout::kCoalescedAntiCamping}) {
    for (const bool parallel : {false, true}) {
      for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{5000}}) {
        SCOPED_TRACE(std::string(core::gpu_layout_name(layout)) +
                     (parallel ? "/parallel" : "/serial") + "/budget" +
                     std::to_string(budget));
        core::GpuTriangleOptions opts;
        opts.layout = layout;
        opts.sancheck = SancheckMode::kStrict;
        opts.max_simulated_tests = budget;  // 0 = exact, else sampled
        opts.exec = parallel ? gpusim::ExecPolicy::parallel(3)
                             : gpusim::ExecPolicy::serial();
        const auto r = core::count_triangles_gpu(g, opts);
        EXPECT_TRUE(r.kernel.hazards.clean());
        if (r.exact) {
          EXPECT_EQ(r.triangles, expected);
        }
      }
    }
  }
}

TEST(StrictShipping, IntersectKernelCleanUnderStrict) {
  const graph::Graph g = graph::erdos_renyi(150, 0.08, 5);
  for (const bool parallel : {false, true}) {
    core::GpuIntersectOptions opts;
    opts.sancheck = SancheckMode::kStrict;
    opts.exec = parallel ? gpusim::ExecPolicy::parallel(2)
                         : gpusim::ExecPolicy::serial();
    const auto r = core::count_triangles_gpu_intersect(g, opts);
    EXPECT_TRUE(r.kernel.hazards.clean());
    EXPECT_EQ(r.triangles, core::count_triangles_forward(g));
  }
}

TEST(StrictShipping, SubgraphKernelsCleanUnderStrict) {
  const graph::Graph g = graph::erdos_renyi(90, 0.10, 7);
  core::GpuKCountOptions opts;
  opts.sancheck = SancheckMode::kStrict;
  EXPECT_NO_THROW(core::count_kcliques_gpu(g, 4, opts));
  EXPECT_NO_THROW(core::list_triangles_gpu(g, opts));
  opts.exec = gpusim::ExecPolicy::serial();
  opts.max_simulated_tests = 3000;  // sampled path
  EXPECT_NO_THROW(core::count_kcliques_gpu(g, 4, opts));
}

TEST(StrictShipping, BfsKernelCleanUnderStrict) {
  // ER graphs guarantee same-level vertices sharing unreached neighbours,
  // so the frontier's benign write race is actually exercised — it must
  // pass strict because the update is recorded as an atomic.
  const graph::Graph g = graph::erdos_renyi(300, 0.03, 9);
  for (const bool parallel : {false, true}) {
    core::GpuBfsOptions opts;
    opts.sancheck = SancheckMode::kStrict;
    opts.exec = parallel ? gpusim::ExecPolicy::parallel(4)
                         : gpusim::ExecPolicy::serial();
    const auto r = core::bfs_gpu(g, 0, opts);
    EXPECT_TRUE(r.hazards.clean());
    EXPECT_EQ(r.tree.level, graph::bfs(g, 0).level);
  }
}

TEST(StrictShipping, HybridCleanUnderStrictForBothResidencies) {
  // Mixed shared/global chunks (the hybrid_test community-graph shape):
  // shared chunks exercise the staging + sync + probe epochs, global
  // chunks the staged-matrix reads.
  const graph::Graph wide = graph::layered_random(1800, 300, 0.03, 0.015, 9);
  const graph::Graph g =
      graph::disjoint_union(wide, graph::complete(20));
  core::HybridOptions opts;
  opts.sancheck = SancheckMode::kStrict;
  opts.max_simulated_tests_per_chunk = 20000;  // sampled chunks
  const auto r = core::count_triangles_hybrid(g, opts);
  EXPECT_GT(r.shared_chunks, 0u);
  EXPECT_GT(r.global_chunks, 0u);
  EXPECT_TRUE(r.hazards.clean());

  core::HybridOptions exact;
  exact.sancheck = SancheckMode::kStrict;
  exact.exec = gpusim::ExecPolicy::serial();
  const graph::Graph small = graph::erdos_renyi(70, 0.12, 3);
  const auto rs = core::count_triangles_hybrid(small, exact);
  EXPECT_TRUE(rs.exact);
  EXPECT_EQ(rs.triangles, core::count_triangles_forward(small));
}

// ---------------------------------------------------------------------------
// Static footprint lint.

TEST(FootprintLint, ProvesShippingLayoutsClean) {
  const graph::Graph g = graph::layered_random(300, 60, 0.08, 0.04, 13);
  for (const auto layout :
       {core::GpuLayout::kNaive, core::GpuLayout::kCoalesced,
        core::GpuLayout::kCoalescedAntiCamping}) {
    SCOPED_TRACE(core::gpu_layout_name(layout));
    core::GpuTriangleOptions opts;
    opts.layout = layout;
    const FootprintSpec spec = core::als_footprint_spec(g, opts);
    EXPECT_GT(spec.total_tests, 0u);
    EXPECT_GT(spec.workers, 0u);
    const FootprintReport r = lint_footprint(spec);
    EXPECT_TRUE(r.clean()) << r;
  }
}

TEST(FootprintLint, RefutesShrunkenBlock) {
  const graph::Graph g = graph::erdos_renyi(120, 0.08, 17);
  core::GpuTriangleOptions opts;
  opts.layout = core::GpuLayout::kCoalescedAntiCamping;
  FootprintSpec spec = core::als_footprint_spec(g, opts);
  // Find the block backing a non-empty job and shave a row off it.
  for (const FootprintJob& job : spec.jobs) {
    if (job.tests == 0) continue;
    spec.blocks[job.block].bytes -= spec.blocks[job.block].stride;
    break;
  }
  const FootprintReport r = lint_footprint(spec);
  EXPECT_FALSE(r.contained);
  EXPECT_TRUE(r.plan_consistent);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings.front().cls, HazardClass::kFootprintEscape);
}

TEST(FootprintLint, RefutesInconsistentPlan) {
  const graph::Graph g = graph::erdos_renyi(120, 0.08, 17);
  FootprintSpec spec = core::als_footprint_spec(g, {});
  for (FootprintJob& job : spec.jobs) {
    if (job.tests == 0) continue;
    ++job.tests;  // breaks the hockey-stick formula AND the tiling
    break;
  }
  const FootprintReport r = lint_footprint(spec);
  EXPECT_FALSE(r.plan_consistent);
}

TEST(FootprintLint, ChecksTestCountsPastChoose3Overflow) {
  // One k = 3 job of s = 5,000,000: C(s, 3) alone passes 2^64, but the
  // job's count C(s-1, 2) fits and must still be checked.
  FootprintSpec spec;
  spec.warp_size = 32;
  spec.workers = 32;
  spec.division = WorkDivision::kCyclic;
  FootprintJob job;
  job.s = 5000000;
  job.x_max = 1;
  job.k = 3;
  job.index_bound = job.s;
  job.block = kNoBlock;
  job.tests = 7;
  spec.jobs.push_back(job);
  spec.total_tests = job.tests;
  EXPECT_FALSE(lint_footprint(spec).plan_consistent);

  spec.jobs[0].tests = 12499992500001u;  // C(4,999,999, 2)
  spec.total_tests = spec.jobs[0].tests;
  EXPECT_TRUE(lint_footprint(spec).plan_consistent);
}

TEST(FootprintLint, RefutesIndexBoundBelowJobSize) {
  const graph::Graph g = graph::erdos_renyi(120, 0.08, 17);
  FootprintSpec spec = core::als_footprint_spec(g, {});
  for (FootprintJob& job : spec.jobs) {
    if (job.tests == 0) continue;
    job.index_bound = job.s - 1;
    break;
  }
  EXPECT_FALSE(lint_footprint(spec).plan_consistent);
}

TEST(FootprintLint, RefutesOverlappingOutputSlots) {
  const graph::Graph g = graph::erdos_renyi(120, 0.08, 17);
  FootprintSpec spec = core::als_footprint_spec(g, {});
  spec.warp_slot.resize(spec.workers);
  for (std::uint64_t w = 0; w < spec.workers; ++w) spec.warp_slot[w] = w;
  EXPECT_TRUE(lint_footprint(spec).slots_disjoint);
  spec.warp_slot.back() = 0;  // collide with warp 0
  const FootprintReport r = lint_footprint(spec);
  EXPECT_FALSE(r.slots_disjoint);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings.back().cls, HazardClass::kSlotOverlap);
}

TEST(FootprintLint, EmptyGraphIsVacuouslyClean) {
  const graph::Graph g(5);  // no edges: zero tests everywhere
  const FootprintSpec spec = core::als_footprint_spec(g, {});
  EXPECT_EQ(spec.total_tests, 0u);
  EXPECT_TRUE(lint_footprint(spec).clean());
}

}  // namespace
}  // namespace lgg::sancheck
