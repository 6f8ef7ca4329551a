// Level-synchronous BFS on the simulated GPU, after Harish & Narayanan
// (HiPC 2007) — the paper's reference [8] and the natural companion to
// Algorithm 1: one kernel launch per BFS level, one thread per vertex,
// CSR adjacency in global memory.
//
// The design's signature behaviour (and known weakness) is modelled
// faithfully: every thread reads its own frontier flag (perfectly
// coalesced), but frontier threads then walk their neighbour lists
// serially, producing scattered global reads whose cost the coalescing
// model charges per compute capability.
#pragma once

#include <cstdint>

#include "graph/bfs.hpp"
#include "core/launch.hpp"
#include "graph/graph.hpp"
#include "gpusim/device.hpp"
#include "gpusim/report.hpp"
#include "sancheck/footprint.hpp"

namespace lgg::core {

struct GpuBfsOptions : RunContext {
  const gpusim::DeviceSpec* device = nullptr;  // nullptr -> C1060
  std::uint32_t threads_per_block = 256;
};

struct GpuBfsResult {
  graph::BfsTree tree;            // functional result (matches host bfs)
  std::uint32_t iterations = 0;   // kernel launches (= depth + 1)
  double kernel_time_s = 0.0;     // sum over launches
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  double total_time_s = 0.0;      // transfer + init + kernels
  /// Merged over all level launches (kReport mode; empty when off).
  /// Frontier updates are recorded as atomics — two threads discovering
  /// one vertex in the same level is the algorithm's benign race — so a
  /// clean run stays clean under kStrict too.
  gpusim::HazardReport hazards;
};

/// Run BFS from `source` on the simulated device.  The returned tree's
/// levels equal graph::bfs(g, source); parents may differ (any valid BFS
/// parent is acceptable, and the GPU visits in vertex-id order).
GpuBfsResult bfs_gpu(const graph::Graph& g, graph::Vertex source,
                     const GpuBfsOptions& opts = {});

/// Static footprint spec of one BFS level launch (every level touches the
/// same three arrays with the same bounds, so one spec covers the whole
/// run): level flags and offset words indexed by vertex id, neighbour
/// words by CSR position, one thread per vertex.
sancheck::FootprintSpec bfs_footprint_spec(const graph::Graph& g,
                                           const GpuBfsOptions& opts = {});

}  // namespace lgg::core
