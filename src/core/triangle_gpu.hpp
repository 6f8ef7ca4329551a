// Triangle counting on the simulated GPU (paper Sections VII–X):
// Algorithm 2 over the ALS plan, with the adjacency data in simulated
// global memory, under three data layouts:
//
//  kNaive
//      One adjacency bit-matrix over ALL vertices (Fig. 8); each thread
//      owns a contiguous range of the flat test space (Section VIII-D) and
//      walks it sequentially.  Lanes of a warp therefore sit in distant
//      regions of the combination space and their simultaneous reads
//      scatter across the matrix — poor coalescing.
//
//  kCoalesced
//      Same single matrix, but work is assigned per WARP and lanes
//      interleave within the warp's range (lane l takes indices
//      begin+l, begin+l+32, ...).  Consecutive flat indices share (x, y)
//      and have consecutive z, so the three reads of a warp slot touch
//      one broadcast word plus two short word-runs — the memory-access-
//      coalescing discipline of Section IX.
//
//  kCoalescedAntiCamping
//      Warp-interleaved work PLUS the redundant layout of Fig. 9: each ALS
//      gets its own compact local matrix (boundary level duplicated
//      between neighbouring ALS blocks), row stride padded by one word so
//      successive rows start in different partitions, and each block's
//      base address pinned to partition (job mod P) — Section X's
//      partition-camping avoidance.
//
// The simulated kernel always issues three 4-byte reads per candidate
// triple (branchless SIMT; avoids divergence), while the functional count
// uses short-circuit host probes — both choices are documented in
// DESIGN.md.  For large graphs the simulation is *test-sampled*: each
// thread simulates only a prefix of its range, statistics are rescaled,
// and `exact` is false (pair with count_triangles_forward for the value).
#pragma once

#include <cstdint>

#include "core/als_plan.hpp"
#include "core/launch.hpp"
#include "graph/graph.hpp"
#include "gpusim/device.hpp"
#include "gpusim/report.hpp"
#include "sancheck/footprint.hpp"

namespace lgg::core {

enum class GpuLayout : int {
  kNaive = 0,
  kCoalesced = 1,
  kCoalescedAntiCamping = 2,
};

[[nodiscard]] const char* gpu_layout_name(GpuLayout layout) noexcept;

struct GpuTriangleOptions : RunContext {
  GpuLayout layout = GpuLayout::kCoalescedAntiCamping;
  /// Device to simulate; nullptr selects the paper's C1060.
  const gpusim::DeviceSpec* device = nullptr;
  std::uint32_t blocks = 0;  // 0 = 2 x SM count
  std::uint32_t threads_per_block = 128;
  /// Cap on candidate triples actually simulated (0 = simulate all).
  /// When the cap truncates, traffic/timing statistics are rescaled by
  /// total/simulated and `exact` is false.
  std::uint64_t max_simulated_tests = 0;
};

struct GpuTriangleResult {
  std::uint64_t triangles = 0;  // full count only when exact
  bool exact = true;
  std::uint64_t total_tests = 0;
  std::uint64_t simulated_tests = 0;
  std::uint64_t device_bytes = 0;  // adjacency footprint (shows redundancy)

  double preprocessing_s = 0.0;  // Algorithm 1 on the modelled host CPU
  gpusim::TransferReport transfer;
  gpusim::KernelReport kernel;
  /// preprocessing + transfer + dispatch overhead + kernel — the number
  /// the paper plots as "GPU timing" (it includes Algorithms 1 and 2).
  double total_time_s = 0.0;
};

GpuTriangleResult count_triangles_gpu(const graph::Graph& g,
                                      const GpuTriangleOptions& opts = {});

/// Build the symbolic footprint of the launch count_triangles_gpu(g, opts)
/// would perform — same plan, same layout math, same work division — for
/// the static sancheck lint (sancheck::lint_footprint), which proves chunk
/// containment and slot disjointness without simulating a single test.
sancheck::FootprintSpec als_footprint_spec(const graph::Graph& g,
                                           const GpuTriangleOptions& opts = {});

}  // namespace lgg::core
