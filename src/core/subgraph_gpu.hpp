// k-clique counting and triangle LISTING on the simulated GPU — the
// Section III/VII extensions of the triangle kernel:
//
//  * k-cliques span at most two adjacent BFS levels, so the clique kernel
//    reuses the two-level window machinery with C(k,2) adjacency probes
//    per candidate;
//  * listing (Section VII's second flavour) augments the triangle kernel
//    with coalesced writes of each found triangle to a device output
//    buffer.
//
// Work division follows Section VIII-D exactly: a flat index space over
// all (two-level window, first-vertex, suffix-combination) candidates, unranked
// per-thread via the hockey-stick identity plus combinadic decoding.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/launch.hpp"
#include "graph/graph.hpp"
#include "gpusim/device.hpp"
#include "gpusim/report.hpp"
#include "sancheck/footprint.hpp"

namespace lgg::core {

struct GpuKCountOptions : RunContext {
  /// Device to simulate; nullptr selects the paper's C1060.
  const gpusim::DeviceSpec* device = nullptr;
  std::uint32_t blocks = 0;  // 0 = 2 x SM count
  std::uint32_t threads_per_block = 128;
  /// Cap on candidates simulated (0 = all); statistics rescale, `exact`
  /// clears, as in count_triangles_gpu.
  std::uint64_t max_simulated_tests = 0;
};

struct GpuKCountResult {
  std::uint64_t count = 0;  // valid only when exact
  bool exact = true;
  std::uint64_t total_tests = 0;
  std::uint64_t simulated_tests = 0;
  gpusim::TransferReport transfer;
  gpusim::KernelReport kernel;
  double total_time_s = 0.0;
};

/// Count k-cliques on the simulated GPU (k >= 1).  Agrees with
/// count_kcliques / count_kcliques_als on exact runs.
GpuKCountResult count_kcliques_gpu(const graph::Graph& g, std::uint32_t k,
                                   const GpuKCountOptions& opts = {});

struct GpuTriangleListing {
  std::vector<std::array<graph::Vertex, 3>> triangles;  // exact runs only
  bool exact = true;
  std::uint64_t total_tests = 0;
  std::uint64_t output_bytes = 0;  // device buffer traffic for the listing
  gpusim::TransferReport transfer;
  gpusim::KernelReport kernel;
  double total_time_s = 0.0;
};

/// Triangle LISTING (Section VII): like the counting kernel, but every
/// found triangle is appended to a device output buffer (three 4-byte
/// writes), which shows up in the transaction/bandwidth accounting.
GpuTriangleListing list_triangles_gpu(const graph::Graph& g,
                                      const GpuKCountOptions& opts = {});

/// Static footprint spec of the k-count launch of count_kcliques_gpu and
/// list_triangles_gpu: one combinadic job per two-level BFS window with
/// the generalised hockey-stick accounting C(s,k) - C(s-x_max,k), all
/// probing the shared whole-graph matrix by global vertex id.
sancheck::FootprintSpec subgraph_footprint_spec(
    const graph::Graph& g, std::uint32_t k, const GpuKCountOptions& opts = {});

}  // namespace lgg::core
