// lgg_cli — command-line front end for the largegraph-gpu library.
//
//   lgg_cli generate <kind> <out.txt> [params...]   synthesize a graph file
//   lgg_cli stats    <graph.txt>                    structural statistics
//   lgg_cli count    <graph.txt> [algo] [budget]    triangle counting
//   lgg_cli list     <graph.txt> [limit]            triangle listing
//   lgg_cli suggest  <graph.txt> <vertex> [k]       friend suggestions
//   lgg_cli ingest   <graph.txt>                    parallel loader stats
//   lgg_cli gpu      <graph.txt> [layout] [device]  simulated GPU run
//   lgg_cli hybrid   <graph.txt>                    Sections V-VI pipeline
//   lgg_cli resilient <graph.txt>                   fault-tolerant pipeline
//   lgg_cli triangle <graph.txt>                    resilient alias: the
//                                                   full traced pipeline
//   lgg_cli approx   <graph.txt> <doulion|wedges> <param>
//
// The gpu/hybrid/resilient/triangle commands accept the observability
// flags (DESIGN.md §12): --trace=FILE writes Chrome trace-event JSON
// (load it in Perfetto / chrome://tracing), --trace-tree[=FILE] the
// human-readable span tree, --metrics[=FILE] a Prometheus text dump, and
// --threads N pins the host ExecPolicy — every exported artifact is
// byte-identical across thread counts.
//
// Graph files are SNAP-format edge lists.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "flags.hpp"
#include "lgg.hpp"
#include "obs_flags.hpp"

namespace {

using namespace lgg;
using namespace lgg::tools;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  lgg_cli generate gnp     <out> <n> <p> [seed]\n"
      "  lgg_cli generate gnm     <out> <n> <m> [seed]\n"
      "  lgg_cli generate ba      <out> <n> <attach> [seed]\n"
      "  lgg_cli generate rmat    <out> <scale> <edge_factor> [seed]\n"
      "  lgg_cli generate layered <out> <n> <width> <p_in> <p_between> [seed]\n"
      "  lgg_cli stats   <graph>\n"
      "  lgg_cli count   <graph> [forward|als|bitmatrix|external|dodg] "
      "[budget_edges] [--orient]\n"
      "  lgg_cli list    <graph> [limit]\n"
      "  lgg_cli suggest <graph> <vertex> [k]\n"
      "  lgg_cli ingest  <graph> [--serial] [--orient] [--pad]\n"
      "                  [--chunk-bytes N] [--threads N]   parallel loader\n"
      "                  stats + `digest:` line (byte-identical across N)\n"
      "  lgg_cli gpu     <graph> [naive|coalesced|improved] "
      "[C1060|C2050|C2070] [--sancheck[=report|strict]]\n"
      "  lgg_cli hybrid  <graph> [--sancheck[=report|strict]]\n"
      "  lgg_cli resilient <graph> [--faults RATE[,SEED]] [--max-retries N]\n"
      "                    [--failover cpu|stream|off] [--no-verify] [--log]\n"
      "  lgg_cli triangle <graph> [resilient options]   (resilient alias)\n"
      "  lgg_cli approx  <graph> doulion <p> | wedges <samples>\n"
      "observability (gpu/hybrid/resilient/triangle):\n"
      "  --trace=FILE        Chrome trace-event JSON (Perfetto-loadable)\n"
      "  --trace-tree[=FILE] human-readable span tree (stdout if bare)\n"
      "  --metrics[=FILE]    Prometheus text dump (stdout if bare)\n"
      "  --profile[=FILE]    lgg_prof counter file (stdout if bare); diff\n"
      "                      two with `lgg_prof diff` (DESIGN.md §17)\n"
      "  --profile-tree[=FILE] human hotspot report (stdout if bare)\n"
      "  --flamegraph[=FILE] collapsed stacks with modelled self-ns\n"
      "                      (pipe into flamegraph.pl; stdout if bare)\n"
      "  --trace-cap=N       cap recorded spans at N; drops surface as\n"
      "                      lgg_obs_spans_dropped_total\n"
      "  --threads N         host simulator threads (1 = serial); traces,\n"
      "                      metrics and profiles are byte-identical\n"
      "                      across N\n"
      "every command that reads a graph also accepts --threads N for the\n"
      "parallel ingest loader (identical result at any N)\n";
  std::exit(2);
}

/// Strip a "--threads N" flag (for commands where it only drives the
/// ingest loader); 0 = default (shared pool).
std::size_t extract_threads(std::vector<std::string>& args) {
  return static_cast<std::size_t>(take_u64(args, "--threads", 0, usage));
}

/// Every command loads through the parallel ingest pipeline — its output
/// is byte-identical to the serial loader at any thread count.
graph::Graph load(const std::string& path, std::size_t threads = 0) {
  ingest::IngestOptions opts;
  opts.threads = threads;
  return ingest::load_snap_file(path, opts).loaded.graph;
}

/// Strip a --sancheck flag from the argument list.  Bare --sancheck (and
/// --sancheck=report) report hazards; --sancheck=strict makes the run
/// throw on the first hazard (non-zero exit).
sancheck::SancheckMode extract_sancheck(std::vector<std::string>& args) {
  std::string mode;
  if (!take_optional_value(args, "--sancheck", mode))
    return sancheck::SancheckMode::kOff;
  if (mode == "-" || mode == "report") return sancheck::SancheckMode::kReport;
  if (mode == "strict") return sancheck::SancheckMode::kStrict;
  usage(("unknown sancheck mode: " + mode).c_str());
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("generate needs a kind and an output path");
  reject_extra_args(args, args[0] == "layered" ? 7 : 5, usage);
  const std::string& kind = args[0];
  const std::string& out = args[1];
  graph::Graph g(0);
  if (kind == "gnp") {
    g = graph::erdos_renyi(arg_u64(args, 2, 1000, usage),
                           arg_f64(args, 3, 0.01, usage),
                           arg_u64(args, 4, 1, usage));
  } else if (kind == "gnm") {
    g = graph::gnm(arg_u64(args, 2, 1000, usage),
                   arg_u64(args, 3, 5000, usage), arg_u64(args, 4, 1, usage));
  } else if (kind == "ba") {
    g = graph::barabasi_albert(arg_u64(args, 2, 1000, usage),
                               arg_u64(args, 3, 4, usage),
                               arg_u64(args, 4, 1, usage));
  } else if (kind == "rmat") {
    g = graph::rmat(static_cast<unsigned>(arg_u64(args, 2, 12, usage)),
                    arg_u64(args, 3, 8, usage), arg_u64(args, 4, 1, usage));
  } else if (kind == "layered") {
    g = graph::layered_random(
        arg_u64(args, 2, 5000, usage), arg_u64(args, 3, 300, usage),
        arg_f64(args, 4, 0.012, usage), arg_f64(args, 5, 0.006, usage),
        arg_u64(args, 6, 1, usage));
  } else {
    usage("unknown generator kind");
  }
  graph::write_snap_edge_list_file(out, g, "generated by lgg_cli " + kind);
  std::cout << "wrote " << out << ": " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges\n";
  return 0;
}

int cmd_stats(std::vector<std::string> args) {
  const std::size_t threads = extract_threads(args);
  if (args.empty()) usage("stats needs a graph file");
  reject_extra_args(args, 1, usage);
  const graph::Graph g = load(args[0], threads);
  const auto deg = graph::degree_stats(g);
  const auto cores = graph::core_decomposition(g);
  const auto comps = graph::connected_components(g);

  TextTable t({"metric", "value"});
  t.new_row().add("vertices").add(std::uint64_t{g.num_vertices()});
  t.new_row().add("edges").add(std::uint64_t{g.num_edges()});
  t.new_row().add("components").add(std::uint64_t{comps.count});
  t.new_row().add("density").add(graph::density(g), 6);
  t.new_row().add("degree min/median/mean/max")
      .add(std::to_string(deg.min) + " / " + std::to_string(deg.median) +
           " / " + std::to_string(deg.mean) + " / " + std::to_string(deg.max));
  t.new_row().add("degeneracy").add(std::uint64_t{cores.degeneracy});
  t.new_row().add("diameter (double-sweep lower bound)")
      .add(std::uint64_t{graph::diameter_double_sweep(g)});
  t.new_row().add("assortativity").add(graph::degree_assortativity(g), 4);
  t.new_row().add("transitivity").add(core::transitivity(g), 6);
  t.print(std::cout);
  return 0;
}

int cmd_count(std::vector<std::string> args) {
  const std::size_t threads = extract_threads(args);
  const bool orient = take_flag(args, "--orient");
  if (args.empty()) usage("count needs a graph file");
  reject_extra_args(args, 3, usage);
  const std::string algo =
      orient ? "dodg" : (args.size() > 1 ? args[1] : "forward");
  Stopwatch wall;
  std::uint64_t triangles = 0;
  if (algo == "dodg") {
    // Degree-ordered orientation: half the adjacency, sqrt(2m)-bounded
    // out-degrees (DESIGN.md §13).
    ThreadPool* pool = threads == 1 ? nullptr : &ThreadPool::shared();
    const auto og = ingest::orient_by_degree(load(args[0], threads), pool);
    triangles = ingest::count_triangles_oriented(og, pool);
  } else if (algo == "forward") {
    triangles = core::count_triangles_forward(load(args[0], threads));
  } else if (algo == "als") {
    triangles = core::count_triangles_cpu_als(load(args[0], threads)).triangles;
  } else if (algo == "bitmatrix") {
    triangles = core::count_triangles_bitmatrix(
        graph::BitMatrix::from_graph(load(args[0], threads)));
  } else if (algo == "external") {
    const stream::EdgeStream es(args[0]);
    const auto r = stream::count_triangles_external(
        es, arg_u64(args, 2, 1u << 20, usage));
    std::cout << "external: " << r.intervals << " intervals, " << r.passes
              << " passes, peak " << r.peak_edges << " edges in memory\n";
    triangles = r.triangles;
  } else {
    usage("unknown counting algorithm");
  }
  std::cout << "triangles: " << triangles << "  (" << algo << ", "
            << format_seconds(wall.elapsed_s()) << ")\n";
  return 0;
}

int cmd_list(std::vector<std::string> args) {
  const std::size_t threads = extract_threads(args);
  if (args.empty()) usage("list needs a graph file");
  reject_extra_args(args, 2, usage);
  const std::uint64_t limit = arg_u64(args, 1, 20, usage);
  const graph::Graph g = load(args[0], threads);
  const auto triangles = core::list_triangles(g);
  std::cout << triangles.size() << " triangles";
  if (triangles.size() > limit) std::cout << " (showing first " << limit << ")";
  std::cout << "\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(triangles.size(), limit);
       ++i)
    std::cout << "  {" << triangles[i][0] << ", " << triangles[i][1] << ", "
              << triangles[i][2] << "}\n";
  return 0;
}

int cmd_suggest(std::vector<std::string> args) {
  const std::size_t threads = extract_threads(args);
  if (args.size() < 2) usage("suggest needs a graph file and a vertex");
  reject_extra_args(args, 3, usage);
  const auto v = static_cast<graph::Vertex>(arg_u64(args, 1, 0, usage));
  const std::uint64_t k = arg_u64(args, 2, 10, usage);
  const graph::Graph g = load(args[0], threads);
  for (const auto& s : core::suggest_friends(g, v, k))
    std::cout << "  " << s.candidate << "  (" << s.mutual_friends
              << " mutual)\n";
  return 0;
}

/// The observability flags shared by the gpu/hybrid/resilient/triangle
/// commands (see usage()) plus --threads, which pins the host ExecPolicy
/// and drives the ingest loader.  session() returns nullptr when no flag
/// armed tracing (drivers then skip all instrumentation); finish(usage)
/// writes the requested exports after the run.
struct ObsCli : ObsFlags {
  std::size_t threads = 0;  // also drives the ingest loader

  explicit ObsCli(std::vector<std::string>& args) {
    take(args, usage);
    if (const auto n = take_u64(args, "--threads", usage)) {
      exec = exec_policy(*n);
      threads = static_cast<std::size_t>(*n);
    }
  }
};

int cmd_gpu(std::vector<std::string> args) {
  core::GpuTriangleOptions opts;
  ObsCli ocli(args);
  ocli.sancheck = extract_sancheck(args);
  ocli.arm(opts);
  if (args.empty()) usage("gpu needs a graph file");
  reject_extra_args(args, 3, usage);
  const graph::Graph g = load(args[0], ocli.threads);
  const std::string layout = args.size() > 1 ? args[1] : "improved";
  if (layout == "naive")
    opts.layout = core::GpuLayout::kNaive;
  else if (layout == "coalesced")
    opts.layout = core::GpuLayout::kCoalesced;
  else if (layout == "improved")
    opts.layout = core::GpuLayout::kCoalescedAntiCamping;
  else
    usage("unknown layout");
  if (args.size() > 2) opts.device = &gpusim::device_by_name(args[2]);
  opts.max_simulated_tests = 2000000;
  const auto r = core::count_triangles_gpu(g, opts);
  std::cout << r.kernel << "\n";
  std::cout << "device bytes " << format_bytes(r.device_bytes)
            << ", transfer " << format_seconds(r.transfer.time_s)
            << ", end-to-end " << format_seconds(r.total_time_s) << "\n";
  if (r.exact) std::cout << "triangles (exact functional run): "
                         << r.triangles << "\n";
  if (opts.sancheck != sancheck::SancheckMode::kOff) {
    std::cout << r.kernel.hazards << "\n";
    // The static half: prove the launch's footprint from the combinadic
    // formulas alone (no simulation).
    std::cout << sancheck::lint_footprint(core::als_footprint_spec(g, opts))
              << "\n";
  }
  ocli.finish(usage);
  return 0;
}

int cmd_hybrid(std::vector<std::string> args) {
  core::HybridOptions opts;
  ObsCli ocli(args);
  ocli.sancheck = extract_sancheck(args);
  ocli.arm(opts);
  if (args.empty()) usage("hybrid needs a graph file");
  reject_extra_args(args, 1, usage);
  opts.max_simulated_tests_per_chunk = 100000;
  const auto r = core::count_triangles_hybrid(load(args[0], ocli.threads), opts);
  std::cout << "chunks: " << r.shared_chunks << " shared-resident, "
            << r.global_chunks << " global-resident\n"
            << "makespan " << format_seconds(r.makespan_s) << " on "
            << gpusim::tesla_c1060().sm_count << " SMs (Eq. 6 estimate "
            << format_seconds(r.eq6_time_s) << ")\n"
            << "end-to-end " << format_seconds(r.total_time_s) << "\n";
  if (r.exact) std::cout << "triangles: " << r.triangles << "\n";
  if (opts.sancheck != sancheck::SancheckMode::kOff)
    std::cout << r.hazards << "\n";
  ocli.finish(usage);
  return 0;
}

int cmd_resilient(std::vector<std::string> args) {
  resilience::RunnerOptions opts;
  ObsCli ocli(args);
  ocli.sancheck = extract_sancheck(args);
  ocli.arm(opts);

  resilience::FaultInjector injector(0, resilience::FaultRates{});
  double rate = 0.0;
  std::uint64_t seed = 1;
  if (take_faults(args, rate, seed, usage)) {
    injector = resilience::FaultInjector(seed,
                                         resilience::FaultRates::uniform(rate));
    opts.faults = &injector;
  }
  opts.retry.max_retries = static_cast<std::uint32_t>(
      take_u64(args, "--max-retries", opts.retry.max_retries, usage));
  take_failover(args, opts.failover, usage);
  if (take_flag(args, "--no-verify")) opts.verify = false;
  if (take_flag(args, "--no-salvage")) opts.salvage = false;
  take_value(args, "--checkpoint", opts.checkpoint_path, usage);
  opts.checkpoint_every_chunks = static_cast<std::uint32_t>(take_u64(
      args, "--checkpoint-every", opts.checkpoint_every_chunks, usage));
  const bool resume = take_flag(args, "--resume");
  const bool show_log = take_flag(args, "--log");
  if (args.empty()) usage("resilient needs a graph file");
  reject_extra_args(args, 1, usage);
  if (resume && opts.checkpoint_path.empty())
    usage("--resume requires --checkpoint=FILE");

  const graph::Graph g = load(args[0], ocli.threads);
  resilience::RunnerReport report;
  if (resume) {
    try {
      report = resilience::resume_resilient(g, opts);
    } catch (const resilience::CheckpointError& e) {
      // Typed rejection (missing, corrupt, version, graph/plan mismatch):
      // warn and complete the run cold — never trust a bad checkpoint.
      std::cerr << "lgg_cli: checkpoint unusable ("
                << resilience::checkpoint_kind_name(e.kind())
                << "): " << e.what() << "; starting cold\n";
      report = resilience::run_resilient(g, opts);
    }
  } else {
    report = resilience::run_resilient(g, opts);
  }
  std::cout << report;
  if (show_log) std::cout << "\n" << report.log;
  ocli.finish(usage);
  // Exact-or-fail: an uncertified run (failover off and a chunk exhausted
  // its retries) is a non-zero exit so scripts can rely on the count.
  return report.certified ? 0 : 1;
}

/// `lgg_cli ingest` — load a SNAP file through the parallel pipeline (or
/// the serial reference loader with --serial) and report content counters,
/// phase timings and the LoadedGraph digest.  The `digest:` line is the
/// determinism contract made greppable: ci/check.sh compares it between
/// --serial and --threads 8 runs.
int cmd_ingest(std::vector<std::string> args) {
  ObsCli ocli(args);
  const bool serial = take_flag(args, "--serial");
  const bool orient = take_flag(args, "--orient");
  const bool pad = take_flag(args, "--pad");
  const std::uint64_t chunk_bytes = take_u64(args, "--chunk-bytes", 0, usage);
  if (args.empty()) usage("ingest needs a graph file");
  reject_extra_args(args, 1, usage);

  graph::LoadedGraph loaded;
  ingest::IngestStats stats;
  Stopwatch wall;
  if (serial) {
    graph::SnapReadOptions sopts;
    sopts.pad_to_declared_nodes = pad;
    loaded = graph::read_snap_edge_list_file(args[0], sopts);
    stats.total_s = wall.elapsed_s();
    stats.threads = 1;
  } else {
    ingest::IngestOptions opts;
    opts.threads = ocli.threads;
    opts.pad_to_declared_nodes = pad;
    if (chunk_bytes > 0) opts.chunk_bytes = chunk_bytes;
    opts.obs = ocli.session();
    auto r = ingest::load_snap_file(args[0], opts);
    loaded = std::move(r.loaded);
    stats = r.stats;
  }
  const graph::Graph& g = loaded.graph;

  std::cout << "loader: " << (serial ? "serial" : "parallel") << " (threads "
            << stats.threads;
  if (!serial) std::cout << ", chunks " << stats.chunks;
  std::cout << ")\n";
  std::cout << "vertices: " << g.num_vertices() << "\n"
            << "edges: " << g.num_edges() << "\n"
            << "digest: " << graph::digest_hex(graph::loaded_graph_digest(loaded))
            << "\n";
  if (!serial) {
    std::cout << "bytes: " << format_bytes(stats.bytes) << ", lines "
              << stats.lines << " (" << stats.edge_lines << " edges, "
              << stats.comment_lines << " comments)\n"
              << "dropped: " << stats.duplicate_edges << " duplicates, "
              << stats.self_loops << " self-loops\n"
              << "phases: read " << format_seconds(stats.read_s) << ", parse "
              << format_seconds(stats.parse_s) << ", compact "
              << format_seconds(stats.compact_s) << ", build "
              << format_seconds(stats.build_s) << "\n";
  }
  const double total = stats.total_s > 0 ? stats.total_s : wall.elapsed_s();
  std::cout << "total " << format_seconds(total) << " ("
            << static_cast<std::uint64_t>(
                   total > 0 ? static_cast<double>(g.num_edges()) / total : 0)
            << " edges/sec)\n";

  if (orient) {
    ThreadPool* pool =
        (serial || ocli.threads == 1) ? nullptr : &ThreadPool::shared();
    const auto og = ingest::orient_by_degree(g, pool);
    std::cout << "oriented: " << og.num_arcs() << " arcs, max out-degree "
              << og.max_out_degree << "\n"
              << "triangles (dodg): "
              << ingest::count_triangles_oriented(og, pool) << "\n";
  }
  ocli.finish(usage);
  return 0;
}

int cmd_approx(const std::vector<std::string>& args) {
  if (args.size() < 3) usage("approx needs: <graph> doulion|wedges <param>");
  reject_extra_args(args, 3, usage);
  const graph::Graph g = load(args[0]);
  if (args[1] == "doulion") {
    const auto r = core::doulion_estimate(g, arg_f64(args, 2, 0.5, usage), 1);
    std::cout << "DOULION(p=" << r.p << "): estimate " << r.estimate
              << " from " << r.kept_edges << " sampled edges\n";
  } else if (args[1] == "wedges") {
    const auto r =
        core::wedge_sampling_estimate(g, arg_u64(args, 2, 100000, usage), 1);
    std::cout << "wedge sampling (" << r.samples << " samples): estimate "
              << r.estimate << " (closed fraction " << r.closed_fraction
              << ")\n";
  } else {
    usage("unknown approx method");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "count") return cmd_count(args);
    if (command == "list") return cmd_list(args);
    if (command == "suggest") return cmd_suggest(args);
    if (command == "ingest") return cmd_ingest(args);
    if (command == "gpu") return cmd_gpu(args);
    if (command == "hybrid") return cmd_hybrid(args);
    if (command == "resilient") return cmd_resilient(args);
    // `triangle` is the front door for the traced pipeline: the resilient
    // runner exercises every span phase (plan, schedule, launch, retry).
    if (command == "triangle") return cmd_resilient(args);
    if (command == "approx") return cmd_approx(args);
    usage("unknown command");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
