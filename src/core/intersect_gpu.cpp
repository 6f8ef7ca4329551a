#include "core/intersect_gpu.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "combi/strategies.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

namespace {

/// Low-degree orientation (same ranking as count_triangles_forward): every
/// triangle appears exactly once as u -> v -> w with rank(u) < rank(v) <
/// rank(w).
struct Oriented {
  std::vector<std::uint64_t> offsets;  // n + 1
  std::vector<Vertex> out;             // sorted by id within each list
  std::vector<std::pair<Vertex, Vertex>> edges;  // all oriented edges
};

Oriented orient(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> rank(n);
  {
    std::vector<Vertex> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](Vertex x, Vertex y) {
      const auto dx = g.degree(x), dy = g.degree(y);
      return dx != dy ? dx < dy : x < y;
    });
    for (std::uint32_t r = 0; r < n; ++r) rank[order[r]] = r;
  }
  Oriented result;
  result.offsets.assign(n + 1, 0);
  for (Vertex u = 0; u < n; ++u)
    for (const Vertex v : g.neighbors(u))
      if (rank[u] < rank[v]) ++result.offsets[u + 1];
  for (std::size_t v = 0; v < n; ++v)
    result.offsets[v + 1] += result.offsets[v];
  result.out.resize(result.offsets[n]);
  result.edges.reserve(result.offsets[n]);
  std::vector<std::uint64_t> cursor(result.offsets.begin(),
                                    result.offsets.end() - 1);
  for (Vertex u = 0; u < n; ++u)
    for (const Vertex v : g.neighbors(u))
      if (rank[u] < rank[v]) {
        result.out[cursor[u]++] = v;
        result.edges.emplace_back(u, v);
      }
  return result;
}

std::uint64_t merge_count(std::span<const Vertex> a,
                          std::span<const Vertex> b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j])
      ++i;
    else if (b[j] < a[i])
      ++j;
    else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// The device CSR: offsets (8-byte words) then neighbours (4-byte words).
struct CsrBuffers {
  gpusim::Buffer offsets;
  gpusim::Buffer adj;
};

CsrBuffers alloc_csr(const Graph& g, const Oriented& oriented,
                     gpusim::DeviceMemory& mem) {
  const std::uint64_t n = g.num_vertices();
  CsrBuffers csr;
  csr.offsets = mem.alloc(std::max<std::uint64_t>((n + 1) * 8, 8));
  csr.adj = mem.alloc(std::max<std::uint64_t>(oriented.out.size() * 4, 4));
  return csr;
}

}  // namespace

GpuIntersectResult count_triangles_gpu_intersect(
    const Graph& g, const GpuIntersectOptions& opts) {
  const LaunchShape shape =
      launch_shape(opts.device, opts.blocks, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  const Oriented oriented = orient(g);

  GpuIntersectResult result;
  result.total_edges = oriented.edges.size();

  gpusim::DeviceMemory mem(dev, opts.faults);
  const CsrBuffers csr = alloc_csr(g, oriented, mem);
  result.device_bytes = csr.offsets.bytes + csr.adj.bytes;
  const gpusim::Simulator sim(dev, opts.faults);
  obs::Scope driver(opts.obs, "gpu/intersect", "driver");
  if (driver) driver.arg("edges", result.total_edges);
  result.transfer = stage(opts, sim, result.device_bytes);

  if (oriented.edges.empty()) {
    result.total_time_s =
        finish_driver(driver, 0.0, result.transfer.time_s, 0.0);
    return result;
  }

  const std::uint64_t warps = shape.warps();
  const auto ranges = combi::divide_work(oriented.edges.size(), warps);

  std::uint64_t per_warp_budget = ~std::uint64_t{0};
  if (opts.max_simulated_edges > 0 &&
      opts.max_simulated_edges < oriented.edges.size())
    per_warp_budget =
        std::max<std::uint64_t>(1, opts.max_simulated_edges / warps);

  std::uint64_t total_work = 0;
  for (const auto& [u, v] : oriented.edges)
    total_work += (oriented.offsets[u + 1] - oriented.offsets[u]) +
                  (oriented.offsets[v + 1] - oriented.offsets[v]);

  // Per-warp functional output slots (simulator thread-safety contract:
  // warps may replay concurrently; lane 0 of each warp owns its slot, all
  // other captures below are read-only for the launch).
  std::vector<std::uint64_t> warp_triangles(warps, 0);
  std::vector<std::uint64_t> warp_edges(warps, 0);
  std::vector<std::uint64_t> warp_work(warps, 0);

  const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                      gpusim::ThreadRecorder& rec) {
    const std::uint64_t warp_id = ctx.global_id / dev.warp_size;
    const auto& range = ranges[warp_id];
    const std::uint64_t count =
        std::min<std::uint64_t>(range.size(), per_warp_budget);
    for (std::uint64_t e = 0; e < count; ++e) {
      const auto [u, v] = oriented.edges[range.begin + e];

      // Every lane reads the two offset words (same address: a broadcast,
      // one transaction on CC >= 1.2).
      rec.global_read(csr.offsets, static_cast<std::uint64_t>(u) * 8, 8);
      rec.global_read(csr.offsets, static_cast<std::uint64_t>(v) * 8, 8);

      // Lane-parallel coalesced streaming of both adjacency lists: lane l
      // reads elements l, l+32, ...; trailing lanes clamp to the last
      // element (same segment) so the warp tapes stay slot-aligned.
      for (const Vertex x : {u, v}) {
        const std::uint64_t begin = oriented.offsets[x];
        const std::uint64_t len = oriented.offsets[x + 1] - begin;
        const std::uint64_t slots = (len + dev.warp_size - 1) / dev.warp_size;
        for (std::uint64_t s = 0; s < slots; ++s) {
          std::uint64_t idx = begin + s * dev.warp_size + ctx.lane;
          if (idx >= begin + len) idx = begin + len - 1;  // clamp
          rec.global_read(csr.adj, idx * 4, 4);
        }
        rec.compute(static_cast<double>(slots));  // merge-step issue cost
      }

      if (ctx.lane == 0) {
        const std::span<const Vertex> lu(
            oriented.out.data() + oriented.offsets[u],
            oriented.offsets[u + 1] - oriented.offsets[u]);
        const std::span<const Vertex> lv(
            oriented.out.data() + oriented.offsets[v],
            oriented.offsets[v + 1] - oriented.offsets[v]);
        warp_triangles[ctx.global_warp] += merge_count(lu, lv);
        ++warp_edges[ctx.global_warp];
        warp_work[ctx.global_warp] += lu.size() + lv.size();
      }
    }
  };

  // The CSR (offsets + neighbours) is staged by the host.
  const gpusim::Buffer staged[] = {csr.offsets, csr.adj};
  result.kernel = launch(
      opts,
      {.sim = sim,
       .mem = mem,
       .config = {"triangles/intersect", shape.blocks,
                  shape.threads_per_block},
       .staged = staged,
       .reduce =
           [&] {
             // Deterministic reduction: fold per-warp slots in warp order.
             std::uint64_t simulated_work = 0;
             for (std::uint64_t wid = 0; wid < warps; ++wid) {
               result.triangles += warp_triangles[wid];
               result.simulated_edges += warp_edges[wid];
               simulated_work += warp_work[wid];
             }
             result.exact = result.simulated_edges == oriented.edges.size();
             return sample_factor(total_work, simulated_work);
           }},
      kernel);

  result.total_time_s = finish_driver(driver, 0.0, result.transfer.time_s,
                                      result.kernel.kernel_time_s);
  return result;
}

sancheck::FootprintSpec intersect_footprint_spec(
    const Graph& g, const GpuIntersectOptions& opts) {
  const LaunchShape shape =
      launch_shape(opts.device, opts.blocks, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  const Oriented oriented = orient(g);
  const std::uint64_t n = g.num_vertices();
  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const CsrBuffers csr = alloc_csr(g, oriented, mem);

  sancheck::FootprintSpec spec;
  spec.name = "gpu/intersect";
  spec.total_tests = oriented.edges.size();
  spec.warp_size = dev.warp_size;
  spec.warp_interleaved = true;
  spec.division = sancheck::WorkDivision::kDivideWork;
  spec.workers = shape.warps();
  spec.blocks.push_back({csr.offsets.base, csr.offsets.bytes, 8});
  spec.blocks.push_back({csr.adj.base, csr.adj.bytes, 4});
  // Offset reads: the kernel touches words u * 8 and v * 8 for oriented
  // edge endpoints, all < n.  Neighbour reads (including the trailing-lane
  // clamp) stay below the CSR length.
  spec.accesses.push_back({n, 8, 8, 0, "csr offsets"});
  spec.accesses.push_back({oriented.out.size(), 4, 4, 1, "csr neighbours"});
  return spec;
}

}  // namespace lgg::core
