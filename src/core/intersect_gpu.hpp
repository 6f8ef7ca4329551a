// The modern GPU triangle-counting baseline: one warp per (oriented)
// edge, intersecting sorted CSR adjacency lists in device global memory.
//
// The paper predates this design (it tests candidate vertex triples
// against an adjacency matrix); cuGraph/Gunrock-era counters instead do
// work proportional to Σ_(u,v)∈E (deg u + deg v) over the low-degree
// orientation.  Implementing both on the same simulator lets the benches
// quantify how much of the paper's GPU time is the algorithm rather than
// the memory system (bench_ablation_algorithm).
//
// Device layout: CSR offsets (8-byte words) and neighbour array (4-byte
// words) in global memory; a warp assigned edge (u, v) streams both
// out-neighbour lists through coalesced lane-parallel reads and merges
// them. Functional counting reuses the host CSR.
#pragma once

#include <cstdint>

#include "core/launch.hpp"
#include "graph/graph.hpp"
#include "gpusim/device.hpp"
#include "gpusim/report.hpp"
#include "sancheck/footprint.hpp"

namespace lgg::core {

struct GpuIntersectOptions : RunContext {
  const gpusim::DeviceSpec* device = nullptr;  // nullptr -> C1060
  std::uint32_t blocks = 0;                    // 0 = 2 x SM count
  std::uint32_t threads_per_block = 128;
  /// Cap on edges simulated (0 = all); statistics rescale when truncated.
  std::uint64_t max_simulated_edges = 0;
};

struct GpuIntersectResult {
  std::uint64_t triangles = 0;  // valid when exact
  bool exact = true;
  std::uint64_t total_edges = 0;      // oriented work items
  std::uint64_t simulated_edges = 0;
  std::uint64_t device_bytes = 0;     // CSR footprint
  gpusim::TransferReport transfer;
  gpusim::KernelReport kernel;
  double total_time_s = 0.0;
};

/// Count triangles with the warp-per-edge intersection kernel on the
/// simulated device.  Exact runs agree with count_triangles_forward.
GpuIntersectResult count_triangles_gpu_intersect(
    const graph::Graph& g, const GpuIntersectOptions& opts = {});

/// Static footprint spec of the intersection launch: the CSR offset and
/// neighbour arrays as LinearAccess patterns (offset words indexed by
/// vertex id, neighbour words by CSR position), with divide_work handing
/// the oriented edge list to the warps.  lint_footprint proves every
/// access of every schedule in bounds without running the kernel.
sancheck::FootprintSpec intersect_footprint_spec(
    const graph::Graph& g, const GpuIntersectOptions& opts = {});

}  // namespace lgg::core
