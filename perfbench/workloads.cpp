#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "core/hybrid.hpp"
#include "core/triangle_cpu.hpp"
#include "core/triangle_gpu.hpp"
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ingest/ingest.hpp"
#include "ingest/orient.hpp"
#include "resilience/runner.hpp"
#include "serve/catalog.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using lgg::Stopwatch;
namespace core = lgg::core;
namespace gpusim = lgg::gpusim;
namespace graph = lgg::graph;
namespace ingest = lgg::ingest;
namespace resilience = lgg::resilience;
namespace serve = lgg::serve;

// Every library call runs on its default pool, the process-wide
// lgg::ThreadPool::shared() sized to the hardware concurrency (main.cpp
// prints it).  An explicit size would give every launch or load a private
// pool, which the library reserves for determinism tests.

// Set-up is repeated this many times per run and its median reported, so
// set-up time is measured as steadily as the ops: five times where it
// takes about a second, three times for the 1.9M-edge SNAP workload.
constexpr int kSetupReps = 5;
constexpr int kSnapSetupReps = 3;

// fig11_sim: the Fig. 11 community family at its largest paper size, with
// fixed simulation caps so one op is about half a second, nearly all of it
// simulated replay.
constexpr std::size_t kFig11Vertices = 25000;
constexpr std::uint64_t kFig11GpuTests = 1'000'000;  // per layout
constexpr std::uint64_t kFig11ChunkTests = 20'000;   // per hybrid chunk

// snap_admit: an R-MAT power-law graph far beyond the device budget.
constexpr unsigned kSnapScale = 17;
constexpr std::size_t kSnapEdgeFactor = 16;

// serve_mixed: three small community graphs inside the device budget
// (each device miss replays every test of a few hundred thousand) and one
// Fig. 11-sized graph beyond it.
constexpr std::array<std::size_t, 3> kServeSmallVertices = {800, 900, 1000};
constexpr std::uint64_t kServeMaxBurst = 8;
constexpr std::uint64_t kServeTenants = 4;
constexpr std::uint64_t kServeBfsSources = 32;
constexpr int kServeWarmupBursts = 24;  // two rounds: the cache fills

graph::Graph fig11_graph(std::size_t n, std::uint64_t seed) {
  return graph::layered_random(n, 300, 0.012, 0.006, seed);
}

graph::Graph small_community_graph(std::size_t n, std::uint64_t seed) {
  return graph::layered_random(n, 20, 0.2, 0.1, seed);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  lgg::SplitMix64 mix(seed * 0x100000001B3ull + stream);
  return mix.next();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A generated input file, removed when the run ends.
class TempFile {
 public:
  TempFile(const RunConfig& cfg, const std::string& tag)
      : path_(cfg.work_dir + "/" + cfg.workload + "-s" +
              std::to_string(cfg.seed) + "-p" + std::to_string(getpid()) +
              "-" + tag + ".txt") {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::uint64_t serial_loader_digest(const std::string& path) {
  return graph::loaded_graph_digest(graph::read_snap_edge_list_file(path));
}

// ------------------------------------------------------------- metrics

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.  A traced run reports
// all of them; a layer the workload does not exercise reads 0.
constexpr LayerDef kLayers[] = {
    {"ingest.load_ms", "ms"},
    {"ingest.parse_ms", "ms"},
    {"ingest.compact_ms", "ms"},
    {"ingest.build_ms", "ms"},
    {"ingest.edges_per_s", "1/s"},
    {"ingest.orient_ms", "ms"},
    {"ingest.count_oriented_ms", "ms"},
    {"core.precompute_als_ms", "ms"},
    {"core.plan_tests", "count"},
    {"core.triangle_gpu_ms.naive", "ms"},
    {"core.triangle_gpu_ms.coalesced", "ms"},
    {"core.triangle_gpu_ms.improved", "ms"},
    {"core.hybrid_ms", "ms"},
    {"core.chunk_launch_ms.p50", "ms"},
    {"core.chunk_launch_ms.max", "ms"},
    {"gpusim.sim_tests_per_s.many_block", "1/s"},
    {"gpusim.sim_tests_per_s.one_block", "1/s"},
    {"gpusim.simulated_tests", "count"},
    {"gpusim.transactions", "count"},
    {"resilience.run_ms", "ms"},
    {"resilience.recount_ms", "ms"},
    {"resilience.retries", "count"},
    {"serve.admit_ms", "ms"},
    {"serve.drain_ms.hit", "ms"},
    {"serve.drain_ms.device", "ms"},
    {"serve.drain_ms.dodg", "ms"},
    {"serve.drain_ms.kclique", "ms"},
    {"serve.drain_ms.estimate", "ms"},
    {"serve.drain_ms.bfs", "ms"},
    {"serve.drain_ms.cc", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.requests_per_pass", "count"},
    {"serve.device_passes", "count"},
    {"serve.bfs_memo_entries", "count"},
    {"bench.unattributed_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

class LayerMetrics {
 public:
  void set(const std::string& name, double value) {
    const bool known = std::any_of(
        std::begin(kLayers), std::end(kLayers),
        [&](const LayerDef& d) { return name == d.name; });
    LGG_CHECK(known, "perfbench: unknown layer metric " << name);
    values_[name] = value;
  }
  /// Median duration of the spans named `span`, when any were recorded.
  void set_span_median(const std::string& name,
                       const std::map<std::string, std::vector<double>>& by,
                       const std::string& span) {
    const auto it = by.find(span);
    if (it != by.end()) set(name, median(it->second));
  }
  [[nodiscard]] std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const LayerDef& d : kLayers) {
      const auto it = values_.find(d.name);
      out.push_back({d.name, it == values_.end() ? 0.0 : it->second, d.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Ops measured in one window.  In a traced run ops alternate between
/// traced and untraced, so both latencies come from the same process and
/// the same window.
struct Window {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
};

void print_latency(const std::string& label, const std::vector<double>& ms) {
  const TailChoice tail = choose_tail(ms.size());
  std::cout << label << ": n=" << ms.size() << " p50=" << median(ms)
            << " ms p99=" << percentile(ms, 99.0) << " ms ("
            << samples_beyond(ms.size(), 99.0) << " samples beyond p99)";
  if (tail.found)
    std::cout << "; tail p" << tail.pct << "=" << percentile(ms, tail.pct)
              << " ms with " << tail.beyond << " beyond";
  else
    std::cout << "; no percentile has 10 samples beyond it";
  std::cout << "\n";
}

/// `tail_pct` is the workload's tail percentile: the highest one with at
/// least ten samples beyond it at the op count a window holds (p99 for
/// serving; the median for the batch workloads, which run tens of ops).
std::vector<Metric> end_to_end_metrics(const Window& w, double setup_s,
                                       double tail_pct) {
  print_latency("op latency", w.untraced_ms);
  const std::size_t beyond = samples_beyond(w.untraced_ms.size(), tail_pct);
  std::cout << "op_tail_ms is p" << tail_pct << " with " << beyond
            << " samples beyond it"
            << (beyond >= 10 ? "" : " (fewer than 10: window too short)")
            << "\n";
  const double ff = failed_frac(w.attempted, w.failed);
  std::cout << "failed_frac: " << ff << " (" << w.failed << " of "
            << w.attempted << " attempted)\n";
  return {
      {"op_p50_ms", median(w.untraced_ms), "ms"},
      {"op_tail_ms", percentile(w.untraced_ms, tail_pct), "ms"},
      {"ops_per_s",
       w.seconds > 0.0
           ? static_cast<double>(w.attempted - w.failed) / w.seconds
           : 0.0,
       "1/s"},
      {"ok_frac", 1.0 - ff, "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Run batch ops until the window closes.  `op(index, wall_ms)` returns
/// whether the op's answer checked out; exceptions count as failures.
/// Failed ops are left out of the latency samples.
template <class Op>
Window run_batch_window(const RunConfig& cfg, Tracer& tracer, Op&& op) {
  Window w;
  Stopwatch clock;
  for (std::uint64_t i = 1; clock.elapsed_s() < cfg.seconds; ++i) {
    const bool traced = cfg.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    ++w.attempted;
    double wall_ms = 0.0;
    bool ok = false;
    try {
      ok = op(i, wall_ms);
    } catch (const std::exception& e) {
      std::cout << "op " << i << " threw: " << e.what() << "\n";
    }
    if (!ok) {
      ++w.failed;
      continue;
    }
    (traced ? w.traced_ms : w.untraced_ms).push_back(wall_ms);
  }
  tracer.set_enabled(false);
  w.seconds = clock.elapsed_s();
  return w;
}

/// Build the workload state `reps` times (each a complete set-up:
/// generation, SNAP write, reference answers, admission, warm-up) and
/// keep the last; returns the median set-up time.
template <class State>
double timed_setups(const RunConfig& cfg, Tracer& tracer,
                    std::unique_ptr<State>& state, int reps = kSetupReps) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    state.reset();
    Stopwatch clock;
    state = std::make_unique<State>(cfg, tracer);
    seconds.push_back(clock.elapsed_s());
  }
  std::cout << "setup_s samples:";
  for (const double s : seconds) std::cout << " " << s;
  std::cout << "\n";
  return median(seconds);
}

void finish_trace(const RunConfig& cfg, const Tracer& tracer,
                  const Window& w, LayerMetrics& layers) {
  layers.set("bench.unattributed_frac",
             unattributed_frac(tracer.spans(), "bench.op"));
  if (!w.traced_ms.empty() && !w.untraced_ms.empty())
    layers.set("bench.trace_overhead_frac",
               median(w.traced_ms) / median(w.untraced_ms) - 1.0);
  print_latency("traced op latency", w.traced_ms);
  print_latency("untraced op latency", w.untraced_ms);

  // Self time per layer, summed over the run.
  std::map<std::string, std::pair<double, std::size_t>> self;
  const std::vector<double> self_ms = self_times_ms(tracer.spans());
  for (std::size_t i = 0; i < self_ms.size(); ++i) {
    auto& [total, count] = self[tracer.spans()[i].name];
    total += self_ms[i];
    ++count;
  }
  std::cout << "layer self time (ms, summed over spans):\n";
  for (const auto& [name, entry] : self)
    std::cout << "  " << name << " spans=" << entry.second
              << " self_ms=" << entry.first << "\n";

  const std::string path = cfg.work_dir + "/spans-" + cfg.workload + "-s" +
                           std::to_string(cfg.seed) + ".tsv";
  std::ofstream out(path);
  tracer.write_tsv(out);
  std::cout << "spans written to " << path << "\n";
}

// ----------------------------------------------- one-block chunk launches

struct ChunkProbe {
  std::uint64_t simulated = 0;
  std::uint64_t transactions = 0;
  bool ok = true;  // every recount matched its launch
};

/// Launch every non-empty chunk of `plan` the way the hybrid and resilient
/// pipelines do (fresh simulator and memory, one block per chunk), each
/// run_chunk_kernel under a core.chunk_launch span and, when `recount`,
/// each count_chunk_cpu under a resilience.recount span.
ChunkProbe probe_chunks(const graph::Graph& g, const core::AlsPrecomputed& plan,
                        std::uint64_t cap, bool recount, Tracer& tracer) {
  ChunkProbe probe;
  const gpusim::DeviceSpec& dev = gpusim::tesla_c1060();
  core::HybridOptions opts;
  opts.max_simulated_tests_per_chunk = cap;
  for (std::size_t ci = 0; ci < plan.chunking.chunks.size(); ++ci) {
    const core::ChunkWork& work = plan.works[ci];
    if (work.tests == 0) continue;
    gpusim::DeviceMemory mem(dev);
    const gpusim::Simulator sim(dev);
    core::ChunkLaunch launch;
    {
      SpanScope span(tracer, "core.chunk_launch", 0);
      launch = core::run_chunk_kernel(g, plan.chunking.chunks[ci], work, sim,
                                      mem, opts);
    }
    probe.simulated += launch.simulated;
    probe.transactions += launch.report.transactions;
    if (recount) {
      SpanScope span(tracer, "resilience.recount", 0);
      if (core::count_chunk_cpu(g, work) != launch.triangles) probe.ok = false;
    }
  }
  return probe;
}

/// Chunk-launch metrics from the probe's spans.
void report_chunk_probe(const ChunkProbe& probe,
                        const std::map<std::string, std::vector<double>>& spans,
                        LayerMetrics& layers) {
  const auto it = spans.find("core.chunk_launch");
  if (it == spans.end()) return;
  double total_ms = 0.0;
  for (const double ms : it->second) total_ms += ms;
  layers.set("core.chunk_launch_ms.p50", median(it->second));
  layers.set("core.chunk_launch_ms.max", percentile(it->second, 100.0));
  if (total_ms > 0.0)
    layers.set("gpusim.sim_tests_per_s.one_block",
               static_cast<double>(probe.simulated) / (total_ms / 1e3));
  layers.set("gpusim.simulated_tests", static_cast<double>(probe.simulated));
  layers.set("gpusim.transactions", static_cast<double>(probe.transactions));
  std::cout << "chunk launches: " << it->second.size()
            << " simulated=" << probe.simulated
            << " transactions=" << probe.transactions << "\n";
}

void report_ingest(const std::vector<ingest::IngestStats>& stats,
                   std::uint64_t edges,
                   const std::map<std::string, std::vector<double>>& spans,
                   LayerMetrics& layers) {
  std::vector<double> parse, compact, build;
  for (const ingest::IngestStats& s : stats) {
    parse.push_back(s.parse_s * 1e3);
    compact.push_back(s.compact_s * 1e3);
    build.push_back(s.build_s * 1e3);
  }
  layers.set("ingest.parse_ms", median(parse));
  layers.set("ingest.compact_ms", median(compact));
  layers.set("ingest.build_ms", median(build));
  const auto load = spans.find("ingest.load");
  if (load != spans.end()) {
    const double ms = median(load->second);
    layers.set("ingest.load_ms", ms);
    if (ms > 0.0)
      layers.set("ingest.edges_per_s", static_cast<double>(edges) / (ms / 1e3));
  }
  layers.set_span_median("ingest.orient_ms", spans, "ingest.orient");
  layers.set_span_median("ingest.count_oriented_ms", spans,
                         "ingest.count_oriented");
  layers.set_span_median("core.precompute_als_ms", spans,
                         "core.precompute_als");
}

// ============================================================ fig11_sim

/// What a fig11_sim op computes on the modelled clock and counters; it
/// must repeat exactly from op to op (host speed never moves the model).
struct Fig11Model {
  std::uint64_t plan_tests = 0;
  std::uint64_t simulated = 0;
  std::uint64_t transactions = 0;
  double gpu_model_s = 0.0;
  double hybrid_model_s = 0.0;

  bool operator==(const Fig11Model&) const = default;
};

struct Fig11Op {
  Fig11Model model;
  ingest::IngestStats ingest;
  std::uint64_t edges = 0;
  std::uint64_t digest = 0;
  std::uint64_t triangles = 0;
};

const std::array<std::pair<core::GpuLayout, const char*>, 3> kLayouts = {{
    {core::GpuLayout::kNaive, "naive"},
    {core::GpuLayout::kCoalesced, "coalesced"},
    {core::GpuLayout::kCoalescedAntiCamping, "improved"},
}};

class Fig11State {
 public:
  Fig11State(const RunConfig& cfg, Tracer& tracer)
      : file_(cfg, "fig11") {
    const graph::Graph g =
        fig11_graph(kFig11Vertices, derive_seed(cfg.seed, 11));
    vertices_ = g.num_vertices();
    graph::write_snap_edge_list_file(file_.path(), g);
    ref_triangles_ = core::count_triangles_forward(g);
    ref_digest_ = serial_loader_digest(file_.path());

    const bool was_tracing = tracer.enabled();
    tracer.set_enabled(false);
    Fig11Op warm;
    double wall_ms = 0.0;
    run(0, tracer, wall_ms, warm);
    tracer.set_enabled(was_tracing);
    LGG_CHECK(warm.digest == ref_digest_ && warm.triangles == ref_triangles_,
              "fig11_sim: warm-up op disagrees with the reference");
    ref_model_ = warm.model;
    edges_ = warm.edges;
  }

  /// One op: SNAP file -> ingest -> ALS plan -> three GPU layouts ->
  /// prepared hybrid -> DODG count.  Returns false on a wrong answer or a
  /// modelled figure that differs from the warm-up op's.
  bool run(std::uint64_t op, Tracer& tracer, double& wall_ms, Fig11Op& out) {
    Stopwatch wall;
    SpanScope op_span(tracer, "bench.op", op);
    ingest::IngestResult loaded;
    {
      SpanScope s(tracer, "ingest.load", op);
      loaded = ingest::load_snap_file(file_.path(), ingest::IngestOptions{});
    }
    const graph::Graph& g = loaded.loaded.graph;
    core::HybridOptions hopts;
    hopts.max_simulated_tests_per_chunk = kFig11ChunkTests;
    {
      SpanScope s(tracer, "core.precompute_als", op);
      plan_ = core::precompute_als(g, hopts);
    }
    for (const auto& [layout, name] : kLayouts) {
      core::GpuTriangleOptions gopts;
      gopts.layout = layout;
      gopts.max_simulated_tests = kFig11GpuTests;
      SpanScope s(tracer, std::string("core.triangle_gpu.") + name, op);
      const core::GpuTriangleResult r = core::count_triangles_gpu(g, gopts);
      out.model.simulated += r.simulated_tests;
      out.model.transactions += r.kernel.transactions;
      out.model.gpu_model_s += r.total_time_s;
    }
    hopts.prepared = &plan_;
    core::HybridResult hybrid;
    {
      SpanScope s(tracer, "core.hybrid", op);
      hybrid = core::count_triangles_hybrid(g, hopts);
    }
    ingest::OrientedGraph og;
    {
      SpanScope s(tracer, "ingest.orient", op);
      og = ingest::orient_by_degree(g, &lgg::ThreadPool::shared());
    }
    {
      SpanScope s(tracer, "ingest.count_oriented", op);
      out.triangles =
          ingest::count_triangles_oriented(og, &lgg::ThreadPool::shared());
    }
    op_span.close();
    wall_ms = wall.elapsed_ms();

    out.model.plan_tests = plan_.total_tests;
    out.model.hybrid_model_s = hybrid.total_time_s;
    out.ingest = loaded.stats;
    out.edges = g.num_edges();
    out.digest = graph::loaded_graph_digest(loaded.loaded);
    if (op == 0) {  // warm-up: its model becomes the reference
      graph_ = std::move(loaded.loaded.graph);
      return true;
    }
    return out.digest == ref_digest_ && out.triangles == ref_triangles_ &&
           hybrid.total_tests == plan_.total_tests && out.model == ref_model_;
  }

  [[nodiscard]] const Fig11Model& ref_model() const noexcept {
    return ref_model_;
  }
  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const core::AlsPrecomputed& plan() const noexcept {
    return plan_;
  }
  void print_sizes() const {
    std::cout << "fig11_sim graph: vertices=" << vertices_
              << " edges=" << edges_ << " plan_tests=" << ref_model_.plan_tests
              << " triangles=" << ref_triangles_ << " chunks="
              << plan_.chunking.chunks.size() << "\n";
  }

 private:
  TempFile file_;
  std::size_t vertices_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t ref_triangles_ = 0;
  std::uint64_t ref_digest_ = 0;
  Fig11Model ref_model_;
  graph::Graph graph_;          // the warm-up op's graph (chunk probe)
  core::AlsPrecomputed plan_;   // the latest op's plan
};

RunResult run_fig11(const RunConfig& cfg, Tracer& tracer) {
  std::unique_ptr<Fig11State> state;
  const double setup_s = timed_setups(cfg, tracer, state);
  state->print_sizes();

  std::vector<ingest::IngestStats> stats;  // of the traced ops
  const Window w = run_batch_window(cfg, tracer, [&](std::uint64_t i,
                                                     double& wall_ms) {
    Fig11Op op;
    const bool ok = state->run(i, tracer, wall_ms, op);
    if (ok && tracer.enabled()) stats.push_back(op.ingest);
    return ok;
  });

  RunResult result;
  result.attempted = w.attempted;
  result.failed = w.failed;
  result.correct = w.failed == 0;
  if (!cfg.trace) {
    result.metrics = end_to_end_metrics(w, setup_s, 50.0);
    return result;
  }

  tracer.set_enabled(true);
  ChunkProbe probe = probe_chunks(state->graph(), state->plan(),
                                  kFig11ChunkTests, false, tracer);
  tracer.set_enabled(false);

  LayerMetrics layers;
  const auto spans = durations_by_name(tracer.spans());
  report_ingest(stats, state->graph().num_edges(), spans, layers);
  double gpu_ms = 0.0;  // the three layout launches of a median op
  for (const auto& [layout, name] : kLayouts) {
    const std::string metric = std::string("core.triangle_gpu_ms.") + name;
    layers.set_span_median(metric, spans,
                           std::string("core.triangle_gpu.") + name);
    gpu_ms += median(spans.at(std::string("core.triangle_gpu.") + name));
  }
  const Fig11Model& model = state->ref_model();
  if (gpu_ms > 0.0)
    layers.set("gpusim.sim_tests_per_s.many_block",
               static_cast<double>(model.simulated) / (gpu_ms / 1e3));
  layers.set_span_median("core.hybrid_ms", spans, "core.hybrid");
  layers.set("core.plan_tests", static_cast<double>(model.plan_tests));
  // The counts cover one op's many-block launches plus the probe's.
  probe.simulated += model.simulated;
  probe.transactions += model.transactions;
  report_chunk_probe(probe, spans, layers);
  finish_trace(cfg, tracer, w, layers);
  result.metrics = layers.metrics();
  return result;
}

// ============================================================ snap_admit

/// Class of one served request, from the request log: a cache hit, or the
/// backend pass that answered it ("device" = resilient device pass).
using ClassById = std::map<std::uint64_t, std::string>;

std::string miss_class(const std::string& backend, serve::QueryKind kind) {
  if (backend == "resilient") return "device";
  if (backend == "dodg") return "dodg";
  if (backend != "host") return "error";
  switch (kind) {
    case serve::QueryKind::kKClique: return "kclique";
    case serve::QueryKind::kDoulion:
    case serve::QueryKind::kWedges: return "estimate";
    case serve::QueryKind::kBfs: return "bfs";
    case serve::QueryKind::kCc: return "cc";
    case serve::QueryKind::kTriangles: break;
  }
  return "error";
}

std::uint64_t field_u64(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return 0;
  return std::stoull(std::string(line.substr(at + key.size())));
}

std::string_view field_word(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::string_view rest = line.substr(at + key.size());
  return rest.substr(0, rest.find(' '));
}

struct DrainLog {
  ClassById cls;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t passes = 0;
  std::uint64_t device_passes = 0;
};

/// Classify the requests of one drain from its slice of Service::log().
DrainLog parse_drain_log(std::string_view log,
                         const std::map<std::uint64_t, serve::QueryKind>& kinds) {
  DrainLog out;
  std::map<std::uint64_t, std::uint64_t> pass_of;  // request id -> pass
  std::map<std::uint64_t, std::string> backend;    // pass -> backend
  while (!log.empty()) {
    const std::size_t nl = log.find('\n');
    const std::string_view line = log.substr(0, nl);
    log = nl == std::string_view::npos ? std::string_view{} : log.substr(nl + 1);
    if (line.rfind("req id=", 0) == 0) {
      const std::uint64_t id = field_u64(line, "req id=");
      if (line.find(" cache=hit") != std::string_view::npos) {
        out.cls[id] = "hit";
        ++out.hits;
      } else if (line.find(" cache=miss pass=") != std::string_view::npos) {
        pass_of[id] = field_u64(line, " cache=miss pass=");
        ++out.misses;
      } else {
        out.cls[id] = "error";  // rejected or unknown graph
      }
    } else if (line.rfind("pass ", 0) == 0) {
      const std::uint64_t pass = field_u64(line, "pass ");
      backend[pass] = std::string(field_word(line, " backend="));
      ++out.passes;
      if (backend[pass] == "resilient") ++out.device_passes;
    }
  }
  for (const auto& [id, pass] : pass_of) {
    const auto kind = kinds.find(id);
    out.cls[id] = kind == kinds.end() ? "error"
                                      : miss_class(backend[pass], kind->second);
  }
  return out;
}

serve::Request triangles_request(const std::string& graph_name) {
  serve::Request r;
  r.tenant = "t0";
  r.graph = graph_name;
  r.kind = serve::QueryKind::kTriangles;
  return r;
}

struct SnapOp {
  ingest::IngestStats ingest;
  std::uint64_t edges = 0;
  std::uint64_t plan_tests = 0;
};

class SnapState {
 public:
  SnapState(const RunConfig& cfg, Tracer& /*tracer*/)
      : file_(cfg, "rmat") {
    {
      const graph::Graph g =
          graph::rmat(kSnapScale, kSnapEdgeFactor, derive_seed(cfg.seed, 17));
      vertices_ = g.num_vertices();
      edges_ = g.num_edges();
      graph::write_snap_edge_list_file(file_.path(), g);
      ref_triangles_ = core::count_triangles_forward(g);
    }
    ref_digest_ = serial_loader_digest(file_.path());
    ref_body_ = "triangles=" + std::to_string(ref_triangles_) + " backend=dodg";

    // Warm-up op (the first load of a file is markedly slower), answered
    // by a fresh uncached service: the reference for every measured op.
    serve::Catalog catalog;
    catalog.load_file("g", file_.path());
    serve::ServeOptions sopts;
    sopts.cache_capacity = 0;
    serve::Service service(catalog, sopts);
    service.submit(triangles_request("g"));
    const std::vector<serve::Response> resp = service.drain();
    LGG_CHECK(resp.size() == 1 && resp[0].status == serve::Status::kOk &&
                  resp[0].body == ref_body_ &&
                  catalog.find("g")->digest == ref_digest_,
              "snap_admit: uncached service answered '"
                  << (resp.empty() ? std::string() : resp[0].body)
                  << "', expected '" << ref_body_ << "'");
    plan_tests_ = catalog.find("g")->plan.total_tests;
  }

  /// One op through the public serving API: fresh Catalog::load_file,
  /// then one triangles request, which the DODG backend answers.
  bool run_catalog(std::uint64_t op, Tracer& tracer, double& wall_ms) {
    Stopwatch wall;
    SpanScope op_span(tracer, "bench.op", op);
    serve::Catalog catalog;
    {
      SpanScope s(tracer, "serve.admit", op);
      catalog.load_file("g", file_.path());
    }
    serve::ServeOptions sopts;
    serve::Service service(catalog, sopts);
    service.submit(triangles_request("g"));
    std::vector<serve::Response> resp;
    {
      SpanScope s(tracer, "serve.drain.dodg", op);
      resp = service.drain();
    }
    op_span.close();
    wall_ms = wall.elapsed_ms();
    const DrainLog log =
        parse_drain_log(service.log(), {{0, serve::QueryKind::kTriangles}});
    return resp.size() == 1 && resp[0].status == serve::Status::kOk &&
           resp[0].body == ref_body_ && log.cls.at(0) == "dodg" &&
           catalog.find("g")->digest == ref_digest_;
  }

  /// The same op with Catalog::load_file split into the public calls it
  /// makes (load_snap_file, loaded_graph_digest, precompute_als,
  /// orient_by_degree), and the DODG pass into count_triangles_oriented,
  /// each under its own layer span.
  bool run_split(std::uint64_t op, Tracer& tracer, double& wall_ms,
                 SnapOp& out) {
    Stopwatch wall;
    SpanScope op_span(tracer, "bench.op", op);
    ingest::IngestResult loaded;
    core::AlsPrecomputed plan;
    ingest::OrientedGraph og;
    std::uint64_t digest = 0;
    {
      SpanScope admit(tracer, "serve.admit", op);
      {
        SpanScope s(tracer, "ingest.load", op);
        loaded = ingest::load_snap_file(file_.path(), ingest::IngestOptions{});
      }
      digest = graph::loaded_graph_digest(loaded.loaded);
      {
        SpanScope s(tracer, "core.precompute_als", op);
        plan = core::precompute_als(loaded.loaded.graph);
      }
      {
        SpanScope s(tracer, "ingest.orient", op);
        og = ingest::orient_by_degree(loaded.loaded.graph,
                                      &lgg::ThreadPool::shared());
      }
    }
    std::uint64_t triangles = 0;
    {
      SpanScope drain(tracer, "serve.drain.dodg", op);
      SpanScope s(tracer, "ingest.count_oriented", op);
      triangles =
          ingest::count_triangles_oriented(og, &lgg::ThreadPool::shared());
    }
    op_span.close();
    wall_ms = wall.elapsed_ms();
    out.ingest = loaded.stats;
    out.edges = loaded.loaded.graph.num_edges();
    out.plan_tests = plan.total_tests;
    const std::string body =
        "triangles=" + std::to_string(triangles) + " backend=dodg";
    return body == ref_body_ && digest == ref_digest_ &&
           plan.total_tests == plan_tests_;
  }

  void print_sizes() const {
    std::cout << "snap_admit graph: rmat scale=" << kSnapScale
              << " vertices=" << vertices_ << " edges=" << edges_
              << " plan_tests=" << plan_tests_
              << " triangles=" << ref_triangles_ << "\n";
  }
  [[nodiscard]] std::uint64_t plan_tests() const noexcept {
    return plan_tests_;
  }

 private:
  TempFile file_;
  std::size_t vertices_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t ref_triangles_ = 0;
  std::uint64_t ref_digest_ = 0;
  std::uint64_t plan_tests_ = 0;
  std::string ref_body_;
};

RunResult run_snap_admit(const RunConfig& cfg, Tracer& tracer) {
  std::unique_ptr<SnapState> state;
  const double setup_s = timed_setups(cfg, tracer, state, kSnapSetupReps);
  state->print_sizes();

  std::vector<SnapOp> traced_ops;
  const Window w = run_batch_window(cfg, tracer, [&](std::uint64_t i,
                                                     double& wall_ms) {
    if (!tracer.enabled()) return state->run_catalog(i, tracer, wall_ms);
    SnapOp op;
    const bool ok = state->run_split(i, tracer, wall_ms, op);
    if (ok) traced_ops.push_back(op);
    return ok;
  });

  RunResult result;
  result.attempted = w.attempted;
  result.failed = w.failed;
  result.correct = w.failed == 0;
  if (!cfg.trace) {
    result.metrics = end_to_end_metrics(w, setup_s, 50.0);
    return result;
  }
  LayerMetrics layers;
  const auto spans = durations_by_name(tracer.spans());
  std::vector<ingest::IngestStats> stats;
  for (const SnapOp& op : traced_ops) stats.push_back(op.ingest);
  report_ingest(stats, traced_ops.empty() ? 0 : traced_ops.front().edges,
                spans, layers);
  layers.set("core.plan_tests", static_cast<double>(state->plan_tests()));
  layers.set_span_median("serve.admit_ms", spans, "serve.admit");
  layers.set_span_median("serve.drain_ms.dodg", spans, "serve.drain.dodg");
  // Every op admits afresh, so its one request is always a DODG miss.
  layers.set("serve.cache_hit_ratio", 0.0);
  layers.set("serve.requests_per_pass", 1.0);
  finish_trace(cfg, tracer, w, layers);
  result.metrics = layers.metrics();
  return result;
}

// =========================================================== serve_mixed

struct ServeGraph {
  std::string name;
  std::size_t vertices = 0;
  std::unique_ptr<TempFile> file;
};

/// Seeded bursts of 1..kServeMaxBurst requests, in rounds of a fixed
/// shape so the class mix (and with it every end-to-end figure) does not
/// hinge on the seed; the seed draws burst sizes, tenants, graphs,
/// sources, vertices and estimator seeds.  Each burst holds one query
/// kind, so its drain time belongs to one request class.  Per round:
///
///   0  triangles on small graph round%3: a device miss, because the
///      ~110 cache writes of the three rounds since its last use evict it
///   1, 3, 5, 7, 9, 11  doulion / wedges with fresh seeds on a small
///      graph: cache writes that evict.  Half the bursts, so the median
///      request sits inside this class, not between two others
///   2  bfs from one of kServeBfsSources sources: the memo grows
///   4  cc at a random vertex
///   6  a repeat of burst 2: cache hits
///   8  kclique on graph round%4 (a miss: evicted since its last use)
///   10 every third round triangles on the large graph (a DODG miss),
///      otherwise a repeat of burst 8 (hits)
class BurstGen {
 public:
  static constexpr std::size_t kRoundBursts = 12;

  /// graphs: the three small graphs first, then the large one.
  BurstGen(std::uint64_t seed, const std::vector<ServeGraph>& graphs)
      : rng_(seed), seed_base_(seed << 20), graphs_(graphs) {}

  std::vector<serve::Request> next() {
    const std::size_t step = count_ % kRoundBursts;
    const std::uint64_t round = count_ / kRoundBursts;
    ++count_;
    if (step == 0) start_round();
    std::vector<serve::Request> out;
    switch (step) {
      case 0:
        out = same(graphs_[round % 3], serve::QueryKind::kTriangles,
                   sizes_[0]);
        break;
      case 2:
        out = per_vertex(serve::QueryKind::kBfs, sizes_[1]);
        break;
      case 4:
        out = per_vertex(serve::QueryKind::kCc, sizes_[2]);
        break;
      case 6:
        out = history_[2];
        break;
      case 8:
        out = same(graphs_[round % 4], serve::QueryKind::kKClique, sizes_[3]);
        break;
      case 10:
        out = round % 3 == 0
                  ? same(graphs_[3], serve::QueryKind::kTriangles,
                         1 + rng_.uniform(kServeMaxBurst))
                  : history_[8];
        break;
      default:
        out = estimates(estimate_sizes_[step / 2]);
        break;
    }
    history_[step] = out;
    return out;
  }

 private:
  /// Burst sizes are a seeded shuffle of fixed sets, so every round sends
  /// the same number of requests of each kind; drawing each size on its
  /// own swings the request-weighted latency median by several percent.
  void start_round() {
    sizes_ = {3, 4, 5, 6};
    estimate_sizes_ = {1, 2, 4, 5, 7, 8};
    shuffle(sizes_);
    shuffle(estimate_sizes_);
  }
  template <std::size_t N>
  void shuffle(std::array<std::size_t, N>& a) {
    for (std::size_t i = N - 1; i > 0; --i)
      std::swap(a[i], a[rng_.uniform(i + 1)]);
  }

  std::string tenant() {
    return "t" + std::to_string(rng_.uniform(kServeTenants));
  }

  std::vector<serve::Request> same(const ServeGraph& g, serve::QueryKind kind,
                                   std::size_t size) {
    std::vector<serve::Request> out(size);
    for (serve::Request& r : out) {
      r.tenant = tenant();
      r.graph = g.name;
      r.kind = kind;
      r.k = 4;
    }
    return out;
  }

  std::vector<serve::Request> estimates(std::size_t size) {
    std::vector<serve::Request> out(size);
    for (serve::Request& r : out) {
      r.tenant = tenant();
      r.graph = graphs_[rng_.uniform(3)].name;
      if (rng_.bernoulli(0.5)) {
        r.kind = serve::QueryKind::kDoulion;
        r.p = 0.1;
      } else {
        r.kind = serve::QueryKind::kWedges;
        r.samples = 1024 + rng_.uniform(15 * 1024);  // smooths latencies
      }
      r.seed = seed_base_ + ++fresh_;
    }
    return out;
  }

  std::vector<serve::Request> per_vertex(serve::QueryKind kind,
                                         std::size_t size) {
    std::vector<serve::Request> out(size);
    for (serve::Request& r : out) {
      const ServeGraph& g = graphs_[rng_.uniform(graphs_.size())];
      r.tenant = tenant();
      r.graph = g.name;
      r.kind = kind;
      const std::uint64_t range =
          kind == serve::QueryKind::kBfs
              ? std::min<std::uint64_t>(kServeBfsSources, g.vertices)
              : g.vertices;
      r.vertex = static_cast<graph::Vertex>(rng_.uniform(range));
    }
    return out;
  }

  lgg::Xoshiro256 rng_;
  std::uint64_t seed_base_;
  std::uint64_t fresh_ = 0;
  std::uint64_t count_ = 0;
  std::array<std::vector<serve::Request>, kRoundBursts> history_;
  std::array<std::size_t, 4> sizes_{};           // bursts 0, 2, 4, 8
  std::array<std::size_t, 6> estimate_sizes_{};  // bursts 1, 3, ..., 11
  const std::vector<ServeGraph>& graphs_;
};

struct Served {
  serve::Request req;
  std::string canonical;
  serve::Status status = serve::Status::kError;
  std::string body;
  std::string cls;
  double latency_ms = 0.0;
  bool traced = false;
};

// Heaviest first: a burst's drain is charged to the first class present.
constexpr const char* kClassOrder[] = {"error", "device", "dodg", "kclique",
                                       "cc",    "bfs",    "estimate", "hit"};

class ServeState {
 public:
  ServeState(const RunConfig& cfg, Tracer& tracer) : cfg_(cfg) {
    for (std::size_t i = 0; i < kServeSmallVertices.size(); ++i)
      add_graph("c" + std::to_string(i),
                small_community_graph(kServeSmallVertices[i],
                                      derive_seed(cfg.seed, 100 + i)));
    add_graph("big", fig11_graph(kFig11Vertices, derive_seed(cfg.seed, 200)));

    catalog_ = std::make_unique<serve::Catalog>();
    ref_catalog_ = std::make_unique<serve::Catalog>();
    for (ServeGraph& g : graphs_) {
      if (tracer.enabled()) split_admission(g, tracer);
      {
        SpanScope s(tracer, "serve.admit", 0);
        catalog_->load_file(g.name, g.file->path());
      }
      ref_catalog_->load_file(g.name, g.file->path());
      const serve::ResidentGraph* rg = catalog_->find(g.name);
      g.vertices = rg->loaded.graph.num_vertices();  // isolated ones drop
      plan_tests_ += rg->plan.total_tests;
      const bool device = rg->plan.total_tests <=
                          serve::ServeOptions{}.device_test_budget;
      LGG_CHECK(device == (g.name != "big"),
                "serve_mixed: graph " << g.name << " has "
                                      << rg->plan.total_tests
                                      << " plan tests, on the wrong side of "
                                         "the device budget");
    }
    serve::ServeOptions sopts;
    service_ = std::make_unique<serve::Service>(*catalog_, sopts);
    gen_ = std::make_unique<BurstGen>(derive_seed(cfg.seed, 300), graphs_);

    const bool was_tracing = tracer.enabled();
    tracer.set_enabled(false);
    for (int b = 0; b < kServeWarmupBursts; ++b) {
      std::vector<Served> warm;
      burst(0, tracer, warm);
      for (const Served& s : warm)
        LGG_CHECK(s.status == serve::Status::kOk,
                  "serve_mixed: warm-up request failed: " << s.body);
    }
    tracer.set_enabled(was_tracing);
    log_stats_ = DrainLog{};
  }

  /// Submit one burst, drain it, and record each request's latency (its
  /// submit to the drain's return) and class.
  void burst(std::uint64_t op, Tracer& tracer, std::vector<Served>& out) {
    std::vector<serve::Request> reqs = gen_->next();
    std::map<std::uint64_t, serve::QueryKind> kinds;
    const std::size_t first = out.size();
    const std::size_t log_at = service_->log().size();
    SpanScope op_span(tracer, "bench.op", op);
    {
      SpanScope s(tracer, "serve.submit", op);
      for (serve::Request& r : reqs) {
        r.id = next_id_++;
        kinds[r.id] = r.kind;
        Served rec;
        rec.req = r;
        rec.latency_ms = clock_.elapsed_ms();  // submit time for now
        rec.traced = tracer.enabled();
        out.push_back(std::move(rec));
        service_->submit(r);
      }
    }
    std::vector<serve::Response> resp;
    SpanScope drain(tracer, "serve.drain", op);
    try {
      resp = service_->drain();
    } catch (const std::exception& e) {
      std::cout << "drain threw: " << e.what() << "\n";
    }
    const double done_ms = clock_.elapsed_ms();
    drain.close();
    op_span.close();

    const DrainLog log = parse_drain_log(
        std::string_view(service_->log()).substr(log_at), kinds);
    std::string burst_cls = "hit";
    for (const char* cls : kClassOrder) {
      const bool present = std::any_of(
          log.cls.begin(), log.cls.end(),
          [&](const auto& entry) { return entry.second == cls; });
      if (present) {
        burst_cls = cls;
        break;
      }
    }
    drain.rename("serve.drain." + burst_cls);

    for (std::size_t i = first; i < out.size(); ++i) {
      Served& s = out[i];
      s.latency_ms = done_ms - s.latency_ms;
      const auto cls = log.cls.find(s.req.id);
      s.cls = cls == log.cls.end() ? "error" : cls->second;
      s.canonical = serve::canonical_query(s.req);
    }
    for (const serve::Response& r : resp) {
      if (r.id < out[first].req.id) continue;
      Served& s = out[first + (r.id - out[first].req.id)];
      s.status = r.status;
      s.body = r.body;
    }
    log_stats_.hits += log.hits;
    log_stats_.misses += log.misses;
    log_stats_.passes += log.passes;
    log_stats_.device_passes += log.device_passes;
  }

  /// Answer every distinct query once on a fresh uncached service over a
  /// separately admitted catalog; returns how many served answers differ.
  std::uint64_t verify(const std::vector<Served>& served) {
    serve::ServeOptions ropts;
    ropts.cache_capacity = 0;
    serve::Service ref(*ref_catalog_, ropts);
    std::map<std::string, std::uint64_t> id_of;  // graph + query -> id
    for (const Served& s : served) {
      const std::string key = s.req.graph + "\n" + s.canonical;
      const auto [it, inserted] = id_of.try_emplace(key, id_of.size());
      if (!inserted) continue;
      serve::Request r = s.req;
      r.id = it->second;
      ref.submit(r);
    }
    const std::vector<serve::Response> answers = ref.drain();
    std::uint64_t failed = 0;
    for (const Served& s : served) {
      const serve::Response& want =
          answers[id_of.at(s.req.graph + "\n" + s.canonical)];
      if (s.status == serve::Status::kOk &&
          want.status == serve::Status::kOk && s.body == want.body)
        continue;
      if (++failed <= 5)
        std::cout << "mismatch: graph=" << s.req.graph << " query=\""
                  << s.canonical << "\" served=\"" << s.body
                  << "\" reference=\"" << want.body << "\"\n";
    }
    return failed;
  }

  /// Device passes decomposed: run_resilient per small graph, then its
  /// chunk launches and CPU recounts one at a time; and the large graph's
  /// DODG count.  Times land in spans; returns the launch counts.
  ChunkProbe probe_layers(Tracer& tracer, std::uint64_t& retries) {
    tracer.set_enabled(true);
    ChunkProbe all;
    for (const ServeGraph& g : graphs_) {
      serve::ResidentGraph* rg = catalog_->find(g.name);
      if (g.name == "big") {
        SpanScope s(tracer, "ingest.count_oriented", 0);
        (void)ingest::count_triangles_oriented(rg->dodg,
                                               &lgg::ThreadPool::shared());
        continue;
      }
      resilience::RunnerOptions ropts;  // as the service's device pass
      ropts.prepared = &rg->plan;
      resilience::RunnerReport rr;
      {
        SpanScope s(tracer, "resilience.run", 0);
        rr = resilience::run_resilient(rg->loaded.graph, ropts);
      }
      retries += rr.recovery.retries;
      const ChunkProbe probe =
          probe_chunks(rg->loaded.graph, rg->plan, 0, true, tracer);
      all.ok = all.ok && probe.ok && rr.certified;
      all.simulated += probe.simulated;
      all.transactions += probe.transactions;
    }
    tracer.set_enabled(false);
    LGG_CHECK(all.ok, "serve_mixed: chunk recount disagrees with the device");
    return all;
  }

  [[nodiscard]] std::uint64_t plan_tests() const noexcept {
    return plan_tests_;
  }
  [[nodiscard]] const DrainLog& log_stats() const noexcept {
    return log_stats_;
  }
  [[nodiscard]] std::uint64_t bfs_memo_entries() const {
    std::uint64_t n = 0;
    for (const ServeGraph& g : graphs_)
      n += catalog_->find(g.name)->bfs_memo.size();
    return n;
  }
  [[nodiscard]] const std::vector<ingest::IngestStats>& ingest_stats() const {
    return ingest_stats_;
  }
  [[nodiscard]] std::uint64_t ingest_edges() const noexcept {
    return ingest_edges_;
  }
  void print_sizes() const {
    for (const ServeGraph& g : graphs_) {
      const serve::ResidentGraph* rg = catalog_->find(g.name);
      std::cout << "serve_mixed graph " << g.name
                << ": vertices=" << rg->loaded.graph.num_vertices()
                << " edges=" << rg->loaded.graph.num_edges()
                << " plan_tests=" << rg->plan.total_tests << "\n";
    }
  }

 private:
  void add_graph(const std::string& name, const graph::Graph& g) {
    ServeGraph sg;
    sg.name = name;
    sg.file = std::make_unique<TempFile>(cfg_, name);
    graph::write_snap_edge_list_file(sg.file->path(), g);
    graphs_.push_back(std::move(sg));
  }

  /// Traced set-up only: the public calls Catalog::load_file makes, each
  /// under its layer span, ahead of the real admission.
  void split_admission(const ServeGraph& g, Tracer& tracer) {
    ingest::IngestResult loaded;
    {
      SpanScope s(tracer, "ingest.load", 0);
      loaded = ingest::load_snap_file(g.file->path(), ingest::IngestOptions{});
    }
    {
      SpanScope s(tracer, "core.precompute_als", 0);
      (void)core::precompute_als(loaded.loaded.graph);
    }
    {
      SpanScope s(tracer, "ingest.orient", 0);
      (void)ingest::orient_by_degree(loaded.loaded.graph,
                                     &lgg::ThreadPool::shared());
    }
    ingest_stats_.push_back(loaded.stats);
    ingest_edges_ = std::max<std::uint64_t>(ingest_edges_,
                                            loaded.loaded.graph.num_edges());
  }

  const RunConfig& cfg_;
  std::vector<ServeGraph> graphs_;
  std::unique_ptr<serve::Catalog> catalog_;
  std::unique_ptr<serve::Catalog> ref_catalog_;
  std::unique_ptr<serve::Service> service_;
  std::unique_ptr<BurstGen> gen_;
  Stopwatch clock_;
  std::uint64_t next_id_ = 0;
  std::uint64_t plan_tests_ = 0;
  DrainLog log_stats_;
  std::vector<ingest::IngestStats> ingest_stats_;
  std::uint64_t ingest_edges_ = 0;
};

void print_classes(const std::vector<Served>& served,
                   const DrainLog& log) {
  std::map<std::string, std::vector<double>> by_class;
  for (const Served& s : served) by_class[s.cls].push_back(s.latency_ms);
  std::cout << "request latency by class (submit to drain return):\n";
  for (const auto& [cls, ms] : by_class) print_latency("  " + cls, ms);
  const std::uint64_t base = log.hits + log.misses;
  std::cout << "cache hit ratio: " << log.hits << "/" << base << " = "
            << (base ? static_cast<double>(log.hits) / base : 0.0)
            << "; passes=" << log.passes
            << " device_passes=" << log.device_passes << "\n";
}

RunResult run_serve_mixed(const RunConfig& cfg, Tracer& tracer) {
  std::unique_ptr<ServeState> state;
  const double setup_s = timed_setups(cfg, tracer, state);
  state->print_sizes();

  std::vector<Served> served;
  Window w;
  Stopwatch clock;
  for (std::uint64_t b = 1; clock.elapsed_s() < cfg.seconds; ++b) {
    // Blocks of three whole rounds alternate (every graph rotation
    // completes in a block), so traced and untraced requests share a mix.
    tracer.set_enabled(cfg.trace &&
                       (b - 1) / (3 * BurstGen::kRoundBursts) % 2 == 0);
    state->burst(b, tracer, served);
  }
  tracer.set_enabled(false);
  w.seconds = clock.elapsed_s();
  const std::uint64_t failed = state->verify(served);

  for (const Served& s : served) {
    ++w.attempted;
    const bool ok = s.status == serve::Status::kOk && s.cls != "error";
    if (!ok) continue;
    (s.traced ? w.traced_ms : w.untraced_ms).push_back(s.latency_ms);
  }
  w.failed = failed;
  print_classes(served, state->log_stats());

  RunResult result;
  result.attempted = w.attempted;
  result.failed = w.failed;
  result.correct = w.failed == 0;
  if (!cfg.trace) {
    result.metrics = end_to_end_metrics(w, setup_s, 99.0);
    return result;
  }
  std::uint64_t retries = 0;
  const ChunkProbe probe = state->probe_layers(tracer, retries);
  LayerMetrics layers;
  const auto spans = durations_by_name(tracer.spans());
  report_ingest(state->ingest_stats(), state->ingest_edges(), spans, layers);
  report_chunk_probe(probe, spans, layers);
  layers.set_span_median("resilience.run_ms", spans, "resilience.run");
  layers.set_span_median("resilience.recount_ms", spans, "resilience.recount");
  layers.set("resilience.retries", static_cast<double>(retries));
  layers.set("core.plan_tests", static_cast<double>(state->plan_tests()));
  layers.set_span_median("serve.admit_ms", spans, "serve.admit");
  for (const char* cls : kClassOrder) {
    if (std::string(cls) == "error") continue;
    layers.set_span_median(std::string("serve.drain_ms.") + cls, spans,
                           std::string("serve.drain.") + cls);
  }
  const DrainLog& log = state->log_stats();
  if (log.hits + log.misses > 0)
    layers.set("serve.cache_hit_ratio",
               static_cast<double>(log.hits) /
                   static_cast<double>(log.hits + log.misses));
  if (log.passes > 0)
    layers.set("serve.requests_per_pass", static_cast<double>(log.misses) /
                                              static_cast<double>(log.passes));
  layers.set("serve.device_passes", static_cast<double>(log.device_passes));
  layers.set("serve.bfs_memo_entries",
             static_cast<double>(state->bfs_memo_entries()));
  finish_trace(cfg, tracer, w, layers);
  result.metrics = layers.metrics();
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig11_sim", "snap_admit",
                                                 "serve_mixed"};
  return names;
}

RunResult run_workload(const RunConfig& cfg) {
  Tracer tracer(cfg.trace);
  if (cfg.workload == "fig11_sim") return run_fig11(cfg, tracer);
  if (cfg.workload == "snap_admit") return run_snap_admit(cfg, tracer);
  if (cfg.workload == "serve_mixed") return run_serve_mixed(cfg, tracer);
  LGG_CHECK(false, "perfbench: unknown workload " << cfg.workload);
  return {};
}

}  // namespace perfbench
