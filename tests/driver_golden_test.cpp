// Byte-level golden of every simulated GPU driver: on one fixed generated
// graph, run the five drivers (triangle, intersect, subgraph, bfs,
// hybrid) plus the triangle listing, exact and test-sampled, and print
// every report/result field (doubles as %.17g), the run's span tree,
// its metrics text and, for the drivers that take a profiler, the
// profile text.  The concatenation must equal ci/golden/driver-reports.txt
// byte for byte, so any change to launch accounting, sampled-report
// rescaling, span args or counters shows up here.
//
// On a mismatch the test writes its actual output to
// build/tests/driver-reports.actual.txt; regenerate (only for a
// deliberate model change) with
//   cp build/tests/driver-reports.actual.txt ci/golden/driver-reports.txt
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "lgg.hpp"

namespace lgg {
namespace {

const std::string kGoldenPath =
    std::string(LGG_REPO_DIR) + "/ci/golden/driver-reports.txt";
// Where a mismatching run leaves its actual output (in the build tree).
const std::string kActualPath = LGG_GOLDEN_ACTUAL_PATH;

graph::Graph golden_graph() {
  return graph::layered_random(300, 20, 0.3, 0.1, 7);
}

/// Small shared memory so the hybrid pipeline mixes shared-resident and
/// global-resident chunks on the golden graph.
const gpusim::DeviceSpec& hybrid_device() {
  static const gpusim::DeviceSpec dev = [] {
    gpusim::DeviceSpec d = gpusim::tesla_c1060();
    d.shared_mem_bytes = 128;
    return d;
  }();
  return dev;
}

class Printer {
 public:
  void u64(const char* key, std::uint64_t v) {
    os_ << key << " " << v << "\n";
  }
  void f64(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << key << " " << buf << "\n";
  }
  void str(const char* key, const std::string& v) {
    os_ << key << " " << v << "\n";
  }
  void raw(const std::string& text) { os_ << text; }

  void transfer(const gpusim::TransferReport& t) {
    u64("transfer.bytes", t.bytes);
    f64("transfer.time_s", t.time_s);
    u64("transfer.corrupted", t.corrupted ? 1 : 0);
  }

  void hazards(const char* key, const gpusim::HazardReport& h) {
    os_ << key << " total=" << h.total << " recorded=" << h.hazards.size()
        << " by_class=";
    for (const std::uint64_t c : h.by_class) os_ << c << ",";
    os_ << "\n";
  }

  void kernel(const gpusim::KernelReport& k) {
    str("kernel.name", k.name);
    u64("kernel.blocks", k.blocks);
    u64("kernel.threads_per_block", k.threads_per_block);
    u64("kernel.warps", k.warps);
    u64("kernel.global_slots", k.global_slots);
    u64("kernel.transactions", k.transactions);
    u64("kernel.bytes", k.bytes);
    os_ << "kernel.partition_histogram.count";
    for (const std::uint64_t c : k.partition_histogram.count) os_ << " " << c;
    os_ << "\n";
    u64("kernel.partition_histogram.total", k.partition_histogram.total);
    f64("kernel.camping_factor", k.camping_factor);
    u64("kernel.shared_slots", k.shared_slots);
    u64("kernel.bank_conflict_steps", k.bank_conflict_steps);
    f64("kernel.warp_instructions", k.warp_instructions);
    f64("kernel.compute_cycles", k.compute_cycles);
    f64("kernel.latency_cycles", k.latency_cycles);
    f64("kernel.dram_cycles", k.dram_cycles);
    f64("kernel.kernel_time_s", k.kernel_time_s);
    f64("kernel.sample_fraction", k.sample_fraction);
    hazards("kernel.hazards", k.hazards);
  }

  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

/// One traced run: a header, the fields `print` emits, then the span tree,
/// the metrics text and (when a profiler was attached) the profile text.
void run(Printer& out, const std::string& title,
         const std::function<void(obs::Session*, prof::Profiler*, Printer&)>&
             body,
         bool with_profiler = false) {
  obs::Session session;
  prof::Profiler profiler(&session);
  out.raw("== " + title + " ==\n");
  body(&session, with_profiler ? &profiler : nullptr, out);
  out.raw("-- spans --\n" + obs::span_tree_text(session.tracer));
  out.raw("-- metrics --\n" + session.metrics.prometheus_text());
  if (with_profiler) out.raw("-- profile --\n" + profiler.profile_text());
}

void triangle_runs(Printer& out, const graph::Graph& g) {
  for (const core::GpuLayout layout :
       {core::GpuLayout::kNaive, core::GpuLayout::kCoalesced,
        core::GpuLayout::kCoalescedAntiCamping}) {
    for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{20000}}) {
      run(out,
          std::string("triangle ") + core::gpu_layout_name(layout) +
              " cap=" + std::to_string(cap),
          [&](obs::Session* s, prof::Profiler* p, Printer& o) {
            core::GpuTriangleOptions opts;
            opts.layout = layout;
            opts.max_simulated_tests = cap;
            opts.sancheck = sancheck::SancheckMode::kReport;
            opts.obs = s;
            opts.prof = p;
            const core::GpuTriangleResult r = core::count_triangles_gpu(g, opts);
            o.u64("triangles", r.triangles);
            o.u64("exact", r.exact ? 1 : 0);
            o.u64("total_tests", r.total_tests);
            o.u64("simulated_tests", r.simulated_tests);
            o.u64("device_bytes", r.device_bytes);
            o.f64("preprocessing_s", r.preprocessing_s);
            o.transfer(r.transfer);
            o.kernel(r.kernel);
            o.f64("total_time_s", r.total_time_s);
          },
          /*with_profiler=*/true);
    }
  }
}

void intersect_runs(Printer& out, const graph::Graph& g) {
  for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{300}}) {
    run(out, "intersect cap=" + std::to_string(cap),
        [&](obs::Session* s, prof::Profiler*, Printer& o) {
          core::GpuIntersectOptions opts;
          opts.max_simulated_edges = cap;
          opts.sancheck = sancheck::SancheckMode::kReport;
          opts.obs = s;
          const core::GpuIntersectResult r =
              core::count_triangles_gpu_intersect(g, opts);
          o.u64("triangles", r.triangles);
          o.u64("exact", r.exact ? 1 : 0);
          o.u64("total_edges", r.total_edges);
          o.u64("simulated_edges", r.simulated_edges);
          o.u64("device_bytes", r.device_bytes);
          o.transfer(r.transfer);
          o.kernel(r.kernel);
          o.f64("total_time_s", r.total_time_s);
        });
  }
}

void kcount_fields(Printer& o, const core::GpuKCountResult& r) {
  o.u64("count", r.count);
  o.u64("exact", r.exact ? 1 : 0);
  o.u64("total_tests", r.total_tests);
  o.u64("simulated_tests", r.simulated_tests);
  o.transfer(r.transfer);
  o.kernel(r.kernel);
  o.f64("total_time_s", r.total_time_s);
}

void subgraph_runs(Printer& out, const graph::Graph& g) {
  for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{5000}}) {
    run(out, "kcliques k=4 cap=" + std::to_string(cap),
        [&](obs::Session* s, prof::Profiler*, Printer& o) {
          core::GpuKCountOptions opts;
          opts.max_simulated_tests = cap;
          opts.sancheck = sancheck::SancheckMode::kReport;
          opts.obs = s;
          kcount_fields(o, core::count_kcliques_gpu(g, 4, opts));
        });
    run(out, "listing cap=" + std::to_string(cap),
        [&](obs::Session* s, prof::Profiler*, Printer& o) {
          core::GpuKCountOptions opts;
          opts.max_simulated_tests = cap;
          opts.sancheck = sancheck::SancheckMode::kReport;
          opts.obs = s;
          const core::GpuTriangleListing r = core::list_triangles_gpu(g, opts);
          o.u64("listed", r.triangles.size());
          std::uint64_t h = 14695981039346656037ull;  // FNV-1a over ids
          for (const auto& t : r.triangles)
            for (const graph::Vertex v : t) h = (h ^ v) * 1099511628211ull;
          o.u64("listed_fnv", h);
          o.u64("exact", r.exact ? 1 : 0);
          o.u64("total_tests", r.total_tests);
          o.u64("output_bytes", r.output_bytes);
          o.transfer(r.transfer);
          o.kernel(r.kernel);
          o.f64("total_time_s", r.total_time_s);
        });
  }
}

void bfs_runs(Printer& out, const graph::Graph& g) {
  run(out, "bfs source=5", [&](obs::Session* s, prof::Profiler*, Printer& o) {
    core::GpuBfsOptions opts;
    opts.sancheck = sancheck::SancheckMode::kReport;
    opts.obs = s;
    const core::GpuBfsResult r = core::bfs_gpu(g, 5, opts);
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a over levels, parents
    for (std::size_t v = 0; v < r.tree.level.size(); ++v)
      h = ((h ^ r.tree.level[v]) * 1099511628211ull ^ r.tree.parent[v]) *
          1099511628211ull;
    o.u64("tree.depth", r.tree.depth);
    o.u64("tree_fnv", h);
    o.u64("iterations", r.iterations);
    o.f64("kernel_time_s", r.kernel_time_s);
    o.u64("transactions", r.transactions);
    o.u64("bytes", r.bytes);
    o.f64("total_time_s", r.total_time_s);
    o.hazards("hazards", r.hazards);
  });
}

void hybrid_runs(Printer& out, const graph::Graph& g) {
  for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{200}}) {
    run(out, "hybrid cap=" + std::to_string(cap),
        [&](obs::Session* s, prof::Profiler* p, Printer& o) {
          core::HybridOptions opts;
          opts.device = &hybrid_device();
          opts.max_simulated_tests_per_chunk = cap;
          opts.sancheck = sancheck::SancheckMode::kReport;
          opts.obs = s;
          opts.prof = p;
          const core::HybridResult r = core::count_triangles_hybrid(g, opts);
          o.u64("triangles", r.triangles);
          o.u64("exact", r.exact ? 1 : 0);
          o.u64("total_tests", r.total_tests);
          o.u64("shared_chunks", r.shared_chunks);
          o.u64("global_chunks", r.global_chunks);
          for (const core::ChunkExecution& c : r.chunks) {
            std::ostringstream line;
            char t[64];
            std::snprintf(t, sizeof t, "%.17g", c.time_s);
            line << "chunk " << c.chunk << " shared=" << c.shared_resident
                 << " tests=" << c.tests << " triangles=" << c.triangles
                 << " time_s=" << t << " sm=" << c.sm << "\n";
            o.raw(line.str());
          }
          o.u64("schedule.makespan", r.schedule.makespan);
          o.f64("makespan_s", r.makespan_s);
          o.f64("eq6_time_s", r.eq6_time_s);
          o.f64("total_time_s", r.total_time_s);
          o.hazards("hazards", r.hazards);
        },
        /*with_profiler=*/true);
  }
}

std::string all_reports() {
  const graph::Graph g = golden_graph();
  Printer out;
  triangle_runs(out, g);
  intersect_runs(out, g);
  subgraph_runs(out, g);
  bfs_runs(out, g);
  hybrid_runs(out, g);
  return out.text();
}

TEST(DriverGolden, ReportsMatchCommittedGolden) {
  const std::string actual = all_reports();
  std::ifstream in(kGoldenPath, std::ios::binary);
  std::stringstream want;
  want << in.rdbuf();
  if (in && want.str() == actual) return;

  std::ofstream(kActualPath, std::ios::binary) << actual;
  ASSERT_TRUE(in) << "missing golden " << kGoldenPath
                  << "; actual output written to " << kActualPath;

  // Name the first differing line instead of dumping both files.
  std::istringstream a(want.str()), b(actual);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) break;
    if (!more_a || !more_b || la != lb) {
      FAIL() << "golden differs at line " << line << "\n  golden: "
             << (more_a ? la : "<eof>") << "\n  actual: "
             << (more_b ? lb : "<eof>") << "\nactual output written to "
             << kActualPath;
    }
  }
  FAIL() << "golden differs (line endings?); actual output written to "
         << kActualPath;
}

}  // namespace
}  // namespace lgg
