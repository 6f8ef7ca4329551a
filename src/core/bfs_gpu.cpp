#include "core/bfs_gpu.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

namespace {

/// Device arrays of one run: level flags (4-byte words), CSR offsets
/// (8-byte words) and CSR neighbours (4-byte words), in allocation order.
struct BfsBuffers {
  gpusim::Buffer levels;
  gpusim::Buffer offsets;
  gpusim::Buffer adj;
};

BfsBuffers alloc_bfs(const Graph& g, gpusim::DeviceMemory& mem) {
  const std::uint64_t n = g.num_vertices();
  BfsBuffers b;
  b.levels = mem.alloc(std::max<std::uint64_t>(n, 1) * 4);
  b.offsets = mem.alloc(std::max<std::uint64_t>((n + 1) * 8, 8));
  b.adj = mem.alloc(std::max<std::uint64_t>(g.raw_adjacency().size() * 4, 4));
  return b;
}

}  // namespace

GpuBfsResult bfs_gpu(const Graph& g, Vertex source,
                     const GpuBfsOptions& opts) {
  LGG_CHECK(source < g.num_vertices(), "bfs_gpu: source out of range");
  const std::uint32_t tpb = opts.threads_per_block;
  const gpusim::DeviceSpec& dev = launch_shape(opts.device, 0, tpb).dev;

  const std::uint64_t n = g.num_vertices();
  gpusim::DeviceMemory mem(dev);
  const BfsBuffers bufs = alloc_bfs(g, mem);
  const gpusim::Simulator sim(dev);

  GpuBfsResult result;
  result.tree.source = source;
  result.tree.parent.assign(n, graph::kUnreached);
  result.tree.level.assign(n, graph::kUnreached);
  result.tree.parent[source] = source;
  result.tree.level[source] = 0;

  obs::Scope driver(opts.obs, "gpu/bfs", "driver");
  if (driver) {
    driver.arg("vertices", n);
    driver.arg("source", static_cast<std::uint64_t>(source));
  }

  const gpusim::TransferReport transfer = stage(
      opts, sim, bufs.levels.bytes + bufs.offsets.bytes + bufs.adj.bytes);

  const auto blocks = static_cast<std::uint32_t>((n + tpb - 1) / tpb);
  auto& tree = result.tree;
  // Levels, offsets and adjacency are all staged before the first launch.
  const gpusim::Buffer staged[] = {bufs.levels, bufs.offsets, bufs.adj};

  bool advanced = true;
  std::uint32_t current = 0;
  while (advanced) {
    advanced = false;
    // Thread-safe under the simulator's parallel replay: the kernel only
    // reads `tree` (frozen for the duration of the launch — the level
    // update below runs strictly after the launch returns) and records
    // through its per-thread recorder.
    const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                        gpusim::ThreadRecorder& rec) {
      const std::uint64_t v = ctx.global_id;
      if (v >= n) return;
      // Coalesced frontier-flag read (thread v -> word v).
      rec.global_read(bufs.levels, v * 4, 4);
      rec.compute(2);
      if (tree.level[v] != current) return;

      // Frontier vertex: fetch its CSR slice, then walk neighbours —
      // serial, scattered reads (the HN'07 pattern).
      rec.global_read(bufs.offsets, v * 8, 8);
      const auto nbrs = g.neighbors(static_cast<Vertex>(v));
      const std::uint64_t begin = g.raw_offsets()[v];
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        rec.global_read(bufs.adj, (begin + i) * 4, 4);
        rec.global_read(bufs.levels, static_cast<std::uint64_t>(nbrs[i]) * 4,
                        4);
        rec.compute(3);
        if (tree.level[nbrs[i]] == graph::kUnreached) {
          // Functional update applied after the pass below; traffic is
          // charged here.  Recorded as an atomic (atomicMin in HN'07-style
          // codes): several frontier threads may discover one vertex in
          // the same level, and that race is benign by construction.
          rec.global_atomic(bufs.levels,
                            static_cast<std::uint64_t>(nbrs[i]) * 4, 4);
        }
      }
    };

    const gpusim::KernelReport report = launch(
        opts,
        {.sim = sim,
         .mem = mem,
         .config = {"bfs/level" + std::to_string(current),
                    std::max<std::uint32_t>(blocks, 1), tpb},
         .staged = staged},
        kernel);
    result.kernel_time_s += report.kernel_time_s;
    result.transactions += report.transactions;
    result.bytes += report.bytes;
    result.hazards.merge(report.hazards);
    ++result.iterations;

    // Apply the level-synchronous update on the host side (the kernel
    // recorded the corresponding write traffic above).
    for (Vertex v = 0; v < n; ++v) {
      if (tree.level[v] != current) continue;
      for (const Vertex w : g.neighbors(v)) {
        if (tree.level[w] == graph::kUnreached) {
          tree.level[w] = current + 1;
          tree.parent[w] = v;
          advanced = true;
        }
      }
    }
    if (advanced) tree.depth = ++current;
  }

  result.total_time_s =
      finish_driver(driver, 0.0, transfer.time_s, result.kernel_time_s);
  return result;
}

sancheck::FootprintSpec bfs_footprint_spec(const Graph& g,
                                           const GpuBfsOptions& opts) {
  const std::uint32_t tpb = opts.threads_per_block;
  const gpusim::DeviceSpec& dev = launch_shape(opts.device, 0, tpb).dev;

  const std::uint64_t n = g.num_vertices();
  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const BfsBuffers bufs = alloc_bfs(g, mem);

  sancheck::FootprintSpec spec;
  spec.name = "gpu/bfs";
  spec.total_tests = n;  // one item per vertex, every level
  spec.warp_size = dev.warp_size;
  spec.warp_interleaved = false;
  spec.division = sancheck::WorkDivision::kThreadPerItem;
  const auto launch_blocks =
      std::max<std::uint32_t>(static_cast<std::uint32_t>((n + tpb - 1) / tpb), 1);
  spec.workers = static_cast<std::uint64_t>(launch_blocks) * tpb;
  spec.blocks.push_back({bufs.levels.base, bufs.levels.bytes, 4});
  spec.blocks.push_back({bufs.offsets.base, bufs.offsets.bytes, 8});
  spec.blocks.push_back({bufs.adj.base, bufs.adj.bytes, 4});
  // Frontier flags are read per own-vertex and per-neighbour (and updated
  // via atomics at the same addresses); offsets per frontier vertex;
  // adjacency by CSR position.  All three are vertex/position-indexed.
  spec.accesses.push_back({n, 4, 4, 0, "level flags"});
  spec.accesses.push_back({n, 8, 8, 1, "csr offsets"});
  spec.accesses.push_back(
      {g.raw_adjacency().size(), 4, 4, 2, "csr neighbours"});
  return spec;
}

}  // namespace lgg::core
