#include "core/triangle_gpu.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "combi/strategies.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/occupancy.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace lgg::core {

namespace cal = gpusim::calibration;
using combi::divide_work;
using gpusim::Buffer;

const char* gpu_layout_name(GpuLayout layout) noexcept {
  switch (layout) {
    case GpuLayout::kNaive:
      return "naive";
    case GpuLayout::kCoalesced:
      return "coalesced";
    case GpuLayout::kCoalescedAntiCamping:
      return "coalesced+anti-camping";
  }
  return "?";
}

namespace {

/// Device data placement for one run.
struct Layout {
  bool per_job = false;        // true for kCoalescedAntiCamping
  Buffer matrix;               // single whole-graph matrix (shared layouts)
  std::uint64_t row_bytes = 0; // stride of the single matrix
  std::vector<Buffer> blocks;  // per-ALS blocks
  std::vector<std::uint64_t> strides;  // per-ALS row strides
  std::uint64_t total_bytes = 0;

  /// Address of the 4-byte word holding adjacency bit (i, j) for job r.
  /// Shared layouts use global vertex ids; per-job layouts use local ids.
  [[nodiscard]] std::uint64_t word_addr(std::size_t r, std::uint32_t i,
                                        std::uint32_t j) const {
    if (per_job)
      return blocks[r].addr(static_cast<std::uint64_t>(i) * strides[r] +
                            (static_cast<std::uint64_t>(j) >> 5) * 4);
    return matrix.addr(static_cast<std::uint64_t>(i) * row_bytes +
                       (static_cast<std::uint64_t>(j) >> 5) * 4);
  }
};

Layout build_layout(const graph::Graph& g, const AlsPlan& plan,
                    GpuLayout kind, gpusim::DeviceMemory& mem) {
  Layout layout;
  if (kind == GpuLayout::kCoalescedAntiCamping) {
    layout.per_job = true;
    layout.blocks.reserve(plan.jobs.size());
    layout.strides.reserve(plan.jobs.size());
    const std::uint32_t partitions = mem.spec().partitions;
    for (std::size_t r = 0; r < plan.jobs.size(); ++r) {
      const AlsJob& job = plan.jobs[r];
      // Fig. 9 layout: pad each row to a 256-byte (partition-width)
      // multiple, then add a 32-byte stagger so successive rows rotate
      // through the partitions (the matrix-transpose padding trick the
      // paper cites).  This is the "redundant information" cost the paper
      // accepts in exchange for camping-free access.
      const std::uint64_t natural = ((job.s + 31) / 32) * 4;
      const std::uint64_t stride =
          lgg::round_up_pow2(std::max<std::uint64_t>(natural, 4), 256) + 32;
      const std::uint64_t bytes =
          std::max<std::uint64_t>(static_cast<std::uint64_t>(job.s) * stride, 4);
      layout.blocks.push_back(mem.alloc_in_partition(
          bytes, static_cast<std::uint32_t>(r % partitions)));
      layout.strides.push_back(stride);
      layout.total_bytes += bytes;
    }
  } else {
    const std::uint64_t n = g.num_vertices();
    layout.row_bytes = ((n + 31) / 32) * 4;
    const std::uint64_t bytes = std::max<std::uint64_t>(n * layout.row_bytes, 4);
    layout.matrix = mem.alloc(bytes);
    layout.total_bytes = bytes;
  }
  return layout;
}

}  // namespace

GpuTriangleResult count_triangles_gpu(const graph::Graph& g,
                                      const GpuTriangleOptions& opts) {
  const LaunchShape shape =
      launch_shape(opts.device, opts.blocks, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  obs::Scope driver(opts.obs, "gpu/triangle", "driver");
  if (driver) {
    driver.arg("layout", gpu_layout_name(opts.layout));
    driver.arg("blocks", static_cast<std::uint64_t>(shape.blocks));
    driver.arg("threads_per_block",
               static_cast<std::uint64_t>(shape.threads_per_block));
  }

  GpuTriangleResult result;
  AlsPlan plan;
  {
    obs::Scope span(opts.obs, "plan/bfs+als", "plan");
    plan = build_als_plan(g);
    result.total_tests = plan.total_tests;
    result.preprocessing_s = static_cast<double>(plan.bfs_edges_visited) *
                             cal::kCpuCyclesPerBfsEdge /
                             (cal::kCpuClockGhz * 1e9);
    span.model_s(result.preprocessing_s);
    if (span) {
      span.arg("jobs", static_cast<std::uint64_t>(plan.jobs.size()));
      span.arg("total_tests", plan.total_tests);
      span.arg("bfs_edges", plan.bfs_edges_visited);
    }
  }

  gpusim::DeviceMemory mem(dev, opts.faults);
  const Layout layout = build_layout(g, plan, opts.layout, mem);
  result.device_bytes = layout.total_bytes;

  const gpusim::Simulator sim(dev, opts.faults);
  result.transfer = stage(opts, sim, layout.total_bytes);
  if (opts.obs != nullptr) {
    const gpusim::OccupancyResult occ =
        gpusim::occupancy(dev, {shape.threads_per_block});
    obs::record_occupancy(opts.obs, occ.occupancy);
  }

  if (plan.total_tests == 0) {
    result.total_time_s = finish_driver(driver, result.preprocessing_s,
                                        result.transfer.time_s, 0.0);
    return result;
  }

  // Per-thread simulation budget (test sampling for large graphs).
  const std::uint64_t threads = shape.threads();
  const std::uint64_t warps = shape.warps();
  std::uint64_t budget_per_thread = ~std::uint64_t{0};
  if (opts.max_simulated_tests > 0 &&
      opts.max_simulated_tests < plan.total_tests) {
    budget_per_thread =
        std::max<std::uint64_t>(1, opts.max_simulated_tests / threads);
  }

  const bool warp_interleaved = opts.layout != GpuLayout::kNaive;
  obs::Scope sched(opts.obs, "schedule/work-division", "schedule");
  const auto thread_ranges = warp_interleaved
                                 ? divide_work(plan.total_tests, warps)
                                 : divide_work(plan.total_tests, threads);
  if (sched) {
    sched.arg("workers", static_cast<std::uint64_t>(thread_ranges.size()));
    sched.arg("warp_interleaved", warp_interleaved);
  }
  sched.close();

  // Per-warp functional output slots: the simulator may replay warps
  // concurrently, so every mutable capture below is indexed by
  // ctx.global_warp (lanes of one warp run sequentially on one host
  // thread).  All other captures are read-only for the launch.
  std::vector<std::uint64_t> warp_triangles(warps, 0);
  std::vector<std::uint64_t> warp_simulated(warps, 0);

  const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                      gpusim::ThreadRecorder& rec) {
    TestCursor cursor(plan.jobs);

    std::uint64_t first = 0, count = 0, stride = 1;
    if (warp_interleaved) {
      const std::uint64_t warp_id = ctx.global_id / dev.warp_size;
      const auto& range = thread_ranges[warp_id];
      // Lane l takes indices begin+l, begin+l+32, ... within the warp's
      // (possibly budget-truncated) range.
      const std::uint64_t warp_budget =
          budget_per_thread == ~std::uint64_t{0}
              ? range.size()
              : std::min<std::uint64_t>(range.size(),
                                        budget_per_thread * dev.warp_size);
      first = range.begin + ctx.lane;
      stride = dev.warp_size;
      count = warp_budget > ctx.lane
                  ? (warp_budget - ctx.lane + stride - 1) / stride
                  : 0;
    } else {
      const auto& range = thread_ranges[ctx.global_id];
      first = range.begin;
      stride = 1;
      count = std::min<std::uint64_t>(range.size(), budget_per_thread);
    }

    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t flat = first + i * stride;
      cursor.seek(flat);
      const AlsJob& job = cursor.job();
      const TestTriple& t = cursor.triple();
      const std::size_t r = cursor.job_index();
      const graph::Vertex u = job.local_to_global[t.x];
      const graph::Vertex v = job.local_to_global[t.y];
      const graph::Vertex w = job.local_to_global[t.z];

      // Charge the index arithmetic and issue the three adjacency reads.
      rec.compute(cal::kGpuInstructionsPerTest);
      if (layout.per_job) {
        rec.global_read({layout.blocks[r].base, layout.blocks[r].bytes},
                        layout.word_addr(r, t.x, t.y) - layout.blocks[r].base,
                        4);
        rec.global_read({layout.blocks[r].base, layout.blocks[r].bytes},
                        layout.word_addr(r, t.y, t.z) - layout.blocks[r].base,
                        4);
        rec.global_read({layout.blocks[r].base, layout.blocks[r].bytes},
                        layout.word_addr(r, t.x, t.z) - layout.blocks[r].base,
                        4);
      } else {
        rec.global_read(layout.matrix,
                        layout.word_addr(r, u, v) - layout.matrix.base, 4);
        rec.global_read(layout.matrix,
                        layout.word_addr(r, v, w) - layout.matrix.base, 4);
        rec.global_read(layout.matrix,
                        layout.word_addr(r, u, w) - layout.matrix.base, 4);
      }

      // Functional result (host-side probes, short-circuit).
      if (g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w))
        ++warp_triangles[ctx.global_warp];
      ++warp_simulated[ctx.global_warp];
    }
  };

  // The host stages the whole adjacency layout before the launch, so
  // every read from it is initialised by definition.
  result.kernel = launch(
      opts,
      {.sim = sim,
       .mem = mem,
       .config = {std::string("triangles/") + gpu_layout_name(opts.layout),
                  shape.blocks, shape.threads_per_block},
       .staged = layout.per_job ? std::span<const Buffer>(layout.blocks)
                                : std::span<const Buffer>(&layout.matrix, 1),
       .reduce =
           [&] {
             // Deterministic reduction: fold per-warp slots in warp order.
             for (std::uint64_t wid = 0; wid < warps; ++wid) {
               result.triangles += warp_triangles[wid];
               result.simulated_tests += warp_simulated[wid];
             }
             result.exact = result.simulated_tests == plan.total_tests;
             return sample_factor(plan.total_tests, result.simulated_tests);
           },
       .span_args =
           [](obs::Scope& span, const gpusim::KernelReport& k) {
             span.arg("transactions", k.transactions);
             span.arg("camping_factor", k.camping_factor);
             span.arg("sample_fraction", k.sample_fraction);
           }},
      kernel);

  result.total_time_s =
      finish_driver(driver, result.preprocessing_s, result.transfer.time_s,
                    result.kernel.kernel_time_s);
  return result;
}

sancheck::FootprintSpec als_footprint_spec(const graph::Graph& g,
                                           const GpuTriangleOptions& opts) {
  const LaunchShape shape =
      launch_shape(opts.device, opts.blocks, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  const AlsPlan plan = build_als_plan(g);
  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const Layout layout = build_layout(g, plan, opts.layout, mem);

  sancheck::FootprintSpec spec;
  spec.name = std::string("gpu/triangle/") + gpu_layout_name(opts.layout);
  spec.total_tests = plan.total_tests;
  spec.warp_size = dev.warp_size;
  spec.warp_interleaved = opts.layout != GpuLayout::kNaive;
  spec.workers = spec.warp_interleaved ? shape.warps() : shape.threads();

  if (layout.per_job) {
    spec.blocks.reserve(layout.blocks.size());
    for (std::size_t r = 0; r < layout.blocks.size(); ++r)
      spec.blocks.push_back({layout.blocks[r].base, layout.blocks[r].bytes,
                             layout.strides[r]});
  } else {
    spec.blocks.push_back(
        {layout.matrix.base, layout.matrix.bytes, layout.row_bytes});
  }

  spec.jobs.reserve(plan.jobs.size());
  for (std::size_t r = 0; r < plan.jobs.size(); ++r) {
    const AlsJob& job = plan.jobs[r];
    sancheck::FootprintJob fj;
    fj.test_offset = job.test_offset;
    fj.tests = job.tests;
    fj.s = job.s;
    fj.x_max = job.x_max;
    // Per-job blocks are addressed by local ids (< s); the shared matrix
    // by global vertex ids (< n).
    fj.index_bound = layout.per_job ? job.s : g.num_vertices();
    fj.block = layout.per_job ? r : 0;
    spec.jobs.push_back(fj);
  }
  return spec;
}

}  // namespace lgg::core
