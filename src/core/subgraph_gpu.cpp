#include "core/subgraph_gpu.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "combi/binomial.hpp"
#include "combi/combinadic.hpp"
#include "combi/strategies.hpp"
#include "graph/bfs.hpp"
#include "gpusim/calibration.hpp"
#include "util/error.hpp"

namespace lgg::core {

namespace cal = gpusim::calibration;
using graph::Graph;
using graph::Vertex;

namespace {

/// One two-level BFS window turned into a flat candidate space: choose the
/// first (minimum) local id x < x_max, then a (k-1)-combination above it.
struct WindowJob {
  std::vector<Vertex> locals;  // window levels concatenated, level-major
  std::uint32_t s = 0;
  std::uint32_t x_max = 0;
  std::uint64_t tests = 0;
  std::uint64_t offset = 0;  // prefix sum over all windows
};

std::uint64_t window_tests(std::uint32_t s, std::uint32_t x_max,
                           std::uint32_t k) {
  // Hockey stick: sum_{x < x_max} C(s-1-x, k-1) = C(s, k) - C(s-x_max, k).
  const std::uint64_t tests = combi::binomial_difference(s, x_max, k);
  LGG_CHECK(tests != combi::kBinomialOverflow,
            "window candidate count overflows 64 bits");
  return tests;
}

std::vector<WindowJob> build_windows(const Graph& g, std::uint32_t k,
                                     std::uint64_t& total_tests) {
  std::vector<WindowJob> windows;
  total_tests = 0;
  for (const graph::LevelDecomposition& levels : graph::component_levels(g)) {
    const std::size_t d = levels.num_levels();
    for (std::size_t i = 0; i < d; ++i) {
      WindowJob w;
      const std::size_t last = std::min(d - 1, i + 1);
      for (std::size_t l = i; l <= last; ++l) {
        const auto lvl = levels.level(l);
        w.locals.insert(w.locals.end(), lvl.begin(), lvl.end());
      }
      w.s = static_cast<std::uint32_t>(w.locals.size());
      if (w.s >= k) {
        const auto a = static_cast<std::uint32_t>(levels.level(i).size());
        w.x_max = std::min(a, w.s - k + 1);
        w.tests = window_tests(w.s, w.x_max, k);
      }
      w.offset = total_tests;
      total_tests += w.tests;
      windows.push_back(std::move(w));
    }
  }
  return windows;
}

/// Decode a window-local candidate index into k strictly increasing local
/// ids (combo[0] < x_max).
void decode_candidate(const WindowJob& w, std::uint32_t k,
                      std::uint64_t index,
                      std::span<std::uint32_t> combo) {
  LGG_ASSERT(index < w.tests);
  std::uint64_t before = 0;
  const std::uint32_t lo =
      combi::first_element_below(w.s, w.x_max, k, index, before);
  combo[0] = lo;
  combi::combination_from_index(index - before, w.s - 1 - lo, k - 1,
                                combo.subspan(1));
  for (std::uint32_t j = 1; j < k; ++j) combo[j] += lo + 1;
}

const WindowJob& window_for(const std::vector<WindowJob>& windows,
                            std::uint64_t flat) {
  auto it = std::upper_bound(
      windows.begin(), windows.end(), flat,
      [](std::uint64_t f, const WindowJob& w) { return f < w.offset; });
  LGG_ASSERT(it != windows.begin());
  --it;
  LGG_ASSERT(flat - it->offset < it->tests);
  return *it;
}

/// The whole-graph adjacency matrix in device memory (global vertex ids).
struct DeviceMatrix {
  gpusim::Buffer buf;
  std::uint64_t row_bytes = 0;
};

DeviceMatrix alloc_matrix(const Graph& g, gpusim::DeviceMemory& mem) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t row_bytes = ((n + 31) / 32) * 4;
  return {mem.alloc(std::max<std::uint64_t>(n * row_bytes, 4)), row_bytes};
}

/// Shared implementation: enumerate window candidates on the simulator,
/// probing all C(k,2) pairs; `accept(candidate, global_warp)` decides
/// whether a candidate counts.  The simulator replays warps concurrently,
/// so accept hooks must only read shared state and write to per-warp
/// slots indexed by the passed warp id.
template <typename Accept>
GpuKCountResult run_kcount(const Graph& g, std::uint32_t k,
                           const GpuKCountOptions& opts,
                           const Accept& accept) {
  LGG_CHECK(k >= 1 && k <= 16, "GPU k-count supports 1 <= k <= 16");
  const LaunchShape shape =
      launch_shape(opts.device, opts.blocks, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  GpuKCountResult result;
  std::uint64_t total = 0;
  const std::vector<WindowJob> windows = build_windows(g, k, total);
  result.total_tests = total;

  gpusim::DeviceMemory mem(dev, opts.faults);
  const DeviceMatrix matrix = alloc_matrix(g, mem);
  const gpusim::Simulator sim(dev, opts.faults);
  obs::Scope driver(opts.obs, "gpu/subgraph", "driver");
  if (driver) {
    driver.arg("k", static_cast<std::uint64_t>(k));
    driver.arg("total_tests", total);
  }
  result.transfer = stage(opts, sim, matrix.buf.bytes);

  if (total == 0) {
    result.total_time_s =
        finish_driver(driver, 0.0, result.transfer.time_s, 0.0);
    return result;
  }

  const std::uint64_t warps = shape.warps();
  const auto ranges = combi::divide_work(total, warps);
  std::uint64_t budget_per_thread = ~std::uint64_t{0};
  if (opts.max_simulated_tests > 0 && opts.max_simulated_tests < total)
    budget_per_thread =
        std::max<std::uint64_t>(1, opts.max_simulated_tests / shape.threads());

  // Per-warp functional output slots (simulator thread-safety contract).
  std::vector<std::uint64_t> warp_found(warps, 0);
  std::vector<std::uint64_t> warp_simulated(warps, 0);
  const double instr_per_test =
      cal::kGpuInstructionsPerTest * (static_cast<double>(k) *
                                      static_cast<double>(k - 1) / 6.0);

  const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                      gpusim::ThreadRecorder& rec) {
    const std::uint64_t warp_id = ctx.global_id / dev.warp_size;
    const auto& range = ranges[warp_id];
    const std::uint64_t warp_budget =
        budget_per_thread == ~std::uint64_t{0}
            ? range.size()
            : std::min<std::uint64_t>(range.size(),
                                      budget_per_thread * dev.warp_size);

    std::uint32_t combo[16];
    Vertex verts[16];
    for (std::uint64_t pos = ctx.lane; pos < warp_budget;
         pos += dev.warp_size) {
      const std::uint64_t flat = range.begin + pos;
      const WindowJob& w = window_for(windows, flat);
      decode_candidate(w, k, flat - w.offset,
                       std::span<std::uint32_t>(combo, k));
      for (std::uint32_t j = 0; j < k; ++j) verts[j] = w.locals[combo[j]];

      rec.compute(instr_per_test);
      for (std::uint32_t a = 0; a < k; ++a)
        for (std::uint32_t b = a + 1; b < k; ++b)
          rec.global_read(
              matrix.buf,
              static_cast<std::uint64_t>(verts[a]) * matrix.row_bytes +
                  (static_cast<std::uint64_t>(verts[b]) >> 5) * 4,
              4);
      if (accept(std::span<const Vertex>(verts, k), ctx.global_warp))
        ++warp_found[ctx.global_warp];
      ++warp_simulated[ctx.global_warp];
    }
  };

  // The adjacency matrix is staged by the host.
  result.kernel = launch(
      opts,
      {.sim = sim,
       .mem = mem,
       .config = {"kcount", shape.blocks, shape.threads_per_block},
       .staged = std::span<const gpusim::Buffer>(&matrix.buf, 1),
       .reduce =
           [&] {
             // Deterministic reduction: fold per-warp slots in warp order.
             for (std::uint64_t wid = 0; wid < warps; ++wid) {
               result.count += warp_found[wid];
               result.simulated_tests += warp_simulated[wid];
             }
             result.exact = result.simulated_tests == total;
             return sample_factor(total, result.simulated_tests);
           }},
      kernel);

  result.total_time_s = finish_driver(driver, 0.0, result.transfer.time_s,
                                      result.kernel.kernel_time_s);
  return result;
}

}  // namespace

sancheck::FootprintSpec subgraph_footprint_spec(const Graph& g,
                                                std::uint32_t k,
                                                const GpuKCountOptions& opts) {
  LGG_CHECK(k >= 1 && k <= 16, "GPU k-count supports 1 <= k <= 16");
  const LaunchShape shape =
      launch_shape(opts.device, opts.blocks, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  std::uint64_t total = 0;
  const std::vector<WindowJob> windows = build_windows(g, k, total);

  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const DeviceMatrix matrix = alloc_matrix(g, mem);

  sancheck::FootprintSpec spec;
  spec.name = "gpu/subgraph";
  spec.total_tests = total;
  spec.warp_size = dev.warp_size;
  spec.warp_interleaved = true;
  spec.division = sancheck::WorkDivision::kDivideWork;
  spec.workers = shape.warps();
  spec.blocks.push_back({matrix.buf.base, matrix.buf.bytes, matrix.row_bytes});
  spec.jobs.reserve(windows.size());
  for (const WindowJob& w : windows) {
    sancheck::FootprintJob fj;
    fj.test_offset = w.offset;
    fj.tests = w.tests;
    fj.s = w.s;
    fj.x_max = w.x_max;
    fj.k = k;
    // The C(k,2) pair probes use GLOBAL vertex ids against the shared
    // matrix, so the whole-graph vertex count bounds the addressing.
    fj.index_bound = g.num_vertices();
    fj.block = 0;
    spec.jobs.push_back(fj);
  }
  return spec;
}

GpuKCountResult count_kcliques_gpu(const Graph& g, std::uint32_t k,
                                   const GpuKCountOptions& opts) {
  return run_kcount(g, k, opts,
                    [&](std::span<const Vertex> vs, std::uint64_t) {
                      for (std::size_t a = 0; a < vs.size(); ++a)
                        for (std::size_t b = a + 1; b < vs.size(); ++b)
                          if (!g.has_edge(vs[a], vs[b])) return false;
                      return true;
                    });
}

GpuTriangleListing list_triangles_gpu(const Graph& g,
                                      const GpuKCountOptions& opts) {
  const LaunchShape shape =
      launch_shape(opts.device, opts.blocks, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  GpuTriangleListing listing;
  std::vector<std::array<Vertex, 3>> out;

  // Reuse the k-count machinery with k = 3 and an accept hook that also
  // records the output write traffic.  The output buffer is allocated
  // address space only; appends go to consecutive 12-byte slots, which
  // coalesce well when neighbouring lanes find triangles together.
  gpusim::DeviceMemory scratch(dev);
  const std::uint64_t out_capacity = 64ull << 20;  // 64 MiB listing buffer
  // Reserve the matrix region first so the output buffer's addresses do
  // not alias it (the allocation order of run_kcount).
  (void)alloc_matrix(g, scratch);
  const gpusim::Buffer out_buffer = scratch.alloc(out_capacity);

  GpuKCountResult base;
  {
    // The accept hook needs per-thread recorders; easiest faithful
    // approach: run the counting kernel, then account the output writes
    // analytically (3 coalesced 4-byte writes per found triangle; one
    // 64-byte transaction per half-warp-worth of finds).
    //
    // The hook appends into a per-warp listing slot (warps replay
    // concurrently); the slots are concatenated in warp order below,
    // which reproduces the serial append order exactly.
    std::vector<std::vector<std::array<Vertex, 3>>> warp_out(shape.warps());
    base = run_kcount(
        g, 3, opts,
        [&](std::span<const Vertex> vs, std::uint64_t global_warp) {
          if (g.has_edge(vs[0], vs[1]) && g.has_edge(vs[1], vs[2]) &&
              g.has_edge(vs[0], vs[2])) {
            std::array<Vertex, 3> tri{vs[0], vs[1], vs[2]};
            std::sort(tri.begin(), tri.end());
            warp_out[global_warp].push_back(tri);
            return true;
          }
          return false;
        });
    for (const auto& w : warp_out)
      out.insert(out.end(), w.begin(), w.end());
  }

  listing.exact = base.exact;
  listing.total_tests = base.total_tests;
  listing.transfer = base.transfer;
  listing.kernel = base.kernel;
  listing.output_bytes = static_cast<std::uint64_t>(out.size()) * 12;
  LGG_CHECK(listing.output_bytes <= out_capacity,
            "triangle listing exceeds the 64 MiB output buffer");

  // Charge the append traffic: 12 bytes per triangle, written through
  // 64-byte coalesced transactions.
  const std::uint64_t extra_txns = (listing.output_bytes + 63) / 64;
  listing.kernel.transactions += extra_txns;
  listing.kernel.bytes += listing.output_bytes;
  const gpusim::PartitionModel pm(dev);
  for (std::uint64_t t = 0; t < extra_txns; ++t)
    listing.kernel.partition_histogram.add(pm, out_buffer.base + t * 64);
  listing.kernel.camping_factor =
      listing.kernel.partition_histogram.camping_factor();
  listing.kernel.price_dram(dev);

  if (base.exact) {
    std::sort(out.begin(), out.end());
    listing.triangles = std::move(out);
  }
  listing.total_time_s = end_to_end_s(0.0, listing.transfer.time_s,
                                      listing.kernel.kernel_time_s);
  return listing;
}

}  // namespace lgg::core
