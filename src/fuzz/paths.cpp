#include "fuzz/paths.hpp"

#include <cmath>
#include <sstream>

#include "combi/binomial.hpp"
#include "combi/strategies.hpp"
#include "core/approx.hpp"
#include "core/bfs_gpu.hpp"
#include "core/hybrid.hpp"
#include "core/intersect_gpu.hpp"
#include "core/kcount.hpp"
#include "core/subgraph_gpu.hpp"
#include "core/triangle_cpu.hpp"
#include "core/triangle_gpu.hpp"
#include "core/truss.hpp"
#include "graph/bfs.hpp"
#include "graph/bit_matrix.hpp"
#include "graph/io.hpp"
#include "ingest/orient.hpp"
#include "resilience/fault.hpp"
#include "resilience/runner.hpp"
#include "stream/edge_stream.hpp"
#include "stream/streaming_triangles.hpp"
#include "util/temp_path.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace lgg::fuzz {

namespace {

// Launch geometry shared by all simulator paths: small enough to keep a
// campaign iteration fast, large enough that work division, warp
// interleaving and the scheduler all have something to do.
constexpr std::uint32_t kBlocks = 4;
constexpr std::uint32_t kThreadsPerBlock = 64;

PathOutcome exact(std::uint64_t count) {
  return {static_cast<double>(count), 0.0, {}};
}

bool combi_cost_ok(const graph::Graph& g) {
  // The Section VIII strategies enumerate all C(n,3) combinations; keep
  // the per-strategy walk under ~200k emissions.
  if (g.num_vertices() < 3) return true;  // counted as 0 without enumerating
  const std::uint64_t total = combi::binomial(g.num_vertices(), 3);
  return total != combi::kBinomialOverflow && total <= 200000;
}

// Count triangles by enumerating every 3-combination of vertices under
// one Section VIII strategy and probing the three edges — deliberately
// naive, so it exercises the strategy machinery end to end and agrees
// with the oracle only if the strategy covers each combination exactly
// once.
PathOutcome count_via_strategy(const graph::Graph& g, combi::Strategy s) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  if (n < 3) return exact(0);
  std::uint64_t triangles = 0;
  combi::enumerate_combinations(
      s, n, 3, /*threads=*/7,
      [&](std::uint32_t, std::span<const std::uint32_t> c) {
        if (g.has_edge(c[0], c[1]) && g.has_edge(c[0], c[2]) &&
            g.has_edge(c[1], c[2]))
          ++triangles;
      });
  return exact(triangles);
}

PathOutcome doulion_path(const graph::Graph& g, const PathContext& ctx) {
  // Average independent DOULION runs so the standard error is measurable
  // from the sample itself; flag only a gross departure (a broken 1/p^3
  // rescale or sampler) — 8 standard errors plus absolute slack for
  // near-zero counts.
  constexpr int kReps = 24;
  constexpr double kP = 0.5;
  SplitMix64 seeds(ctx.seed);
  double sum = 0.0, sumsq = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const double e = core::doulion_estimate(g, kP, seeds.next()).estimate;
    sum += e;
    sumsq += e * e;
  }
  const double mean = sum / kReps;
  const double var = std::max(0.0, sumsq / kReps - mean * mean);
  const double se = std::sqrt(var / kReps);
  PathOutcome out;
  out.value = mean;
  out.tolerance = 8.0 * se + 4.0;
  return out;
}

PathOutcome wedge_path(const graph::Graph& g, const PathContext& ctx) {
  constexpr std::uint64_t kSamples = 4096;
  const auto r = core::wedge_sampling_estimate(g, kSamples, ctx.seed);
  PathOutcome out;
  out.value = r.estimate;
  const double phat = r.closed_fraction;
  const double se = static_cast<double>(r.total_wedges) *
                    std::sqrt(std::max(phat * (1.0 - phat), 1e-9) /
                              static_cast<double>(kSamples)) /
                    3.0;
  out.tolerance = 8.0 * se + 4.0;
  return out;
}

PathOutcome bfs_gpu_path(const graph::Graph& g, const PathContext& ctx) {
  core::GpuBfsOptions opts;
  opts.threads_per_block = kThreadsPerBlock;
  opts.exec = ctx.exec;
  opts.sancheck = ctx.sancheck;
  const auto got = core::bfs_gpu(g, 0, opts);
  const auto want = graph::bfs(g, 0);
  std::uint64_t mismatches = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
    if (got.tree.level[v] != want.level[v]) ++mismatches;
  if (got.tree.depth != want.depth) ++mismatches;
  PathOutcome out;
  out.value = static_cast<double>(mismatches);
  if (mismatches)
    out.detail = "GPU BFS levels disagree with host BFS from source 0";
  return out;
}

}  // namespace

const char* path_kind_name(PathKind kind) noexcept {
  switch (kind) {
    case PathKind::kExact:
      return "exact";
    case PathKind::kEstimate:
      return "estimate";
    case PathKind::kInvariant:
      return "invariant";
  }
  return "?";
}

std::uint64_t oracle_triangles(const graph::Graph& g) {
  return core::count_triangles_forward(g);
}

std::vector<CountingPath> default_paths() {
  std::vector<CountingPath> paths;
  auto add = [&](CountingPath p) { paths.push_back(std::move(p)); };

  // --- CPU oracles -------------------------------------------------------
  add({"cpu/edge-iterator", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         return exact(core::count_triangles_edge_iterator(g));
       }});
  add({"cpu/bitmatrix", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         return exact(
             core::count_triangles_bitmatrix(graph::BitMatrix::from_graph(g)));
       }});
  add({"cpu/als", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         return exact(core::count_triangles_cpu_als(g).triangles);
       }});
  add({"cpu/list-size", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         return exact(core::list_triangles(g).size());
       }});
  add({"cpu/per-vertex-sum", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         std::uint64_t sum = 0;
         for (const auto t : core::triangles_per_vertex(g)) sum += t;
         PathOutcome out = exact(sum / 3);
         if (sum % 3 != 0) {
           out.value = -1.0;
           out.detail = "per-vertex triangle counts do not sum to 3x";
         }
         return out;
       }});
  add({"cpu/kclique3", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         return exact(core::count_kcliques(g, 3));
       }});
  add({"cpu/kclique3-als", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         return exact(core::count_kcliques_als(g, 3));
       }});
  add({"cpu/dodg", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         // The host DODG backend, serially and on the shared pool; the two
         // must agree before either is compared with the oracle.
         const std::uint64_t serial =
             ingest::count_triangles_oriented(ingest::orient_by_degree(g));
         ThreadPool& pool = ThreadPool::shared();
         const std::uint64_t pooled = ingest::count_triangles_oriented(
             ingest::orient_by_degree(g, &pool), &pool);
         PathOutcome out = exact(serial);
         if (pooled != serial) {
           out.value = -1.0;
           out.detail = "serial/pooled DODG counts differ: " +
                        std::to_string(serial) + " vs " +
                        std::to_string(pooled);
         }
         return out;
       }});
  add({"cpu/truss-closure", PathKind::kExact, false, {},
       [](const graph::Graph& g, const PathContext&) {
         // Every triangle survives 3-truss peeling and the truss adds none.
         return exact(core::count_triangles_forward(
             core::ktruss_subgraph(g, 3)));
       }});

  // --- Section VIII combination-generation strategies --------------------
  for (const auto s :
       {combi::Strategy::kPrecomputed, combi::Strategy::kSequential,
        combi::Strategy::kSplitByStart, combi::Strategy::kEqualDivision}) {
    add({std::string("combi/") + combi::strategy_name(s), PathKind::kExact,
         false, combi_cost_ok,
         [s](const graph::Graph& g, const PathContext&) {
           return count_via_strategy(g, s);
         }});
  }

  // --- Simulated-GPU kernels (policy- and sancheck-sensitive) ------------
  for (const auto layout :
       {core::GpuLayout::kNaive, core::GpuLayout::kCoalesced,
        core::GpuLayout::kCoalescedAntiCamping}) {
    add({std::string("gpu/triangle-") + core::gpu_layout_name(layout),
         PathKind::kExact, true, {},
         [layout](const graph::Graph& g, const PathContext& ctx) {
           core::GpuTriangleOptions opts;
           opts.layout = layout;
           opts.blocks = kBlocks;
           opts.threads_per_block = kThreadsPerBlock;
           opts.exec = ctx.exec;
           opts.sancheck = ctx.sancheck;
           return exact(core::count_triangles_gpu(g, opts).triangles);
         }});
  }
  add({"gpu/intersect", PathKind::kExact, true, {},
       [](const graph::Graph& g, const PathContext& ctx) {
         core::GpuIntersectOptions opts;
         opts.blocks = kBlocks;
         opts.threads_per_block = kThreadsPerBlock;
         opts.exec = ctx.exec;
         opts.sancheck = ctx.sancheck;
         return exact(core::count_triangles_gpu_intersect(g, opts).triangles);
       }});
  add({"gpu/kclique3", PathKind::kExact, true, {},
       [](const graph::Graph& g, const PathContext& ctx) {
         core::GpuKCountOptions opts;
         opts.blocks = kBlocks;
         opts.threads_per_block = kThreadsPerBlock;
         opts.exec = ctx.exec;
         opts.sancheck = ctx.sancheck;
         return exact(core::count_kcliques_gpu(g, 3, opts).count);
       }});
  add({"gpu/list-size", PathKind::kExact, true, {},
       [](const graph::Graph& g, const PathContext& ctx) {
         core::GpuKCountOptions opts;
         opts.blocks = kBlocks;
         opts.threads_per_block = kThreadsPerBlock;
         opts.exec = ctx.exec;
         opts.sancheck = ctx.sancheck;
         return exact(core::list_triangles_gpu(g, opts).triangles.size());
       }});
  add({"hybrid", PathKind::kExact, true, {},
       [](const graph::Graph& g, const PathContext& ctx) {
         core::HybridOptions opts;
         opts.threads_per_block = kThreadsPerBlock;
         opts.exec = ctx.exec;
         opts.sancheck = ctx.sancheck;
         return exact(core::count_triangles_hybrid(g, opts).triangles);
       }});
  add({"gpu/bfs-levels", PathKind::kInvariant, true,
       [](const graph::Graph& g) { return g.num_vertices() > 0; },
       bfs_gpu_path});

  // --- External-memory streaming -----------------------------------------
  add({"stream/external", PathKind::kExact, false,
       [](const graph::Graph& g) { return g.num_edges() >= 1; },
       [](const graph::Graph& g, const PathContext&) {
         const util::TempPath file = util::TempPath::file("lgg-fuzz");
         graph::write_snap_edge_list_file(file.path(), g,
                                          "fuzz streaming path");
         const stream::EdgeStream es(file.path());
         const std::uint64_t budget =
             std::max<std::uint64_t>(3, g.num_edges() / 2);
         return exact(stream::count_triangles_external(es, budget).triangles);
       }});

  // --- Randomized estimators (statistical bounds) ------------------------
  add({"approx/doulion", PathKind::kEstimate, false, {}, doulion_path});
  add({"approx/wedges", PathKind::kEstimate, false,
       [](const graph::Graph& g) { return g.max_degree() >= 2; }, wedge_path});

  return paths;
}

CountingPath resilient_fault_path(double rate, std::uint64_t salt,
                                  std::uint32_t max_retries,
                                  resilience::Failover failover) {
  CountingPath path;
  path.name = "resilient/chunked";
  path.kind = PathKind::kExact;
  path.policy_sensitive = true;
  path.run = [rate, salt, max_retries, failover](
                 const graph::Graph& g, const PathContext& ctx) {
    // The injector is rebuilt per run from (iteration seed, salt): the
    // fault pattern is a pure function of the campaign seed, and since
    // all hook consultations are host-serial it is also identical under
    // every ExecPolicy — which is what keeps fault-campaign logs
    // byte-identical across host thread counts.
    resilience::FaultInjector injector(
        SplitMix64(ctx.seed ^ salt).next(),
        resilience::FaultRates::uniform(rate));
    resilience::RunnerOptions opts;
    opts.threads_per_block = kThreadsPerBlock;
    opts.exec = ctx.exec;
    opts.sancheck = ctx.sancheck;
    opts.faults = &injector;
    opts.retry.max_retries = max_retries;
    opts.failover = failover;
    const resilience::RunnerReport report = resilience::run_resilient(g, opts);
    PathOutcome out;
    out.value = static_cast<double>(report.triangles);
    if (!report.certified) {
      std::ostringstream detail;
      detail << "uncertified: faults=" << report.recovery.faults
             << " failed=" << report.recovery.failed_chunks;
      out.detail = detail.str();
    }
    return out;
  };
  return path;
}

}  // namespace lgg::fuzz
