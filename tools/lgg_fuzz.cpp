// lgg_fuzz — differential fuzzing campaigns over every counting path.
//
//   lgg_fuzz campaign [options]      time- or iteration-boxed campaign
//   lgg_fuzz replay <repro.txt...>   replay repro files (regression check)
//   lgg_fuzz corpus <dir>            replay every repro in a directory
//   lgg_fuzz shrink <repro.txt>      re-shrink a repro in place
//
// A campaign with a fixed --seed and --iterations produces a
// bit-identical findings log regardless of --threads (the simulator's
// deterministic-reduction guarantee); CI diffs two runs to pin that.
// replay and corpus take lgg_cli's observability flags (tools/obs_flags.hpp:
// --trace FILE, output flags bare for stdout or --flag=FILE) except the
// profiles, since the fuzz engine launches through no profiler.
// Exit status: 0 when clean, 1 when any finding (or replay disagreement)
// occurred, 2 on usage errors.
#include <cstdlib>
#include <filesystem>
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
      "  lgg_fuzz campaign [--iterations N] [--seconds S] [--seed S]\n"
      "                    [--corpus DIR] [--max-vertices N] [--threads T]\n"
      "                    [--max-findings N] [--no-shrink] [--serial-only]\n"
      "                    [--faults RATE[,SEED]] [--max-retries N]\n"
      "                    [--failover cpu|stream|off] [--trace-dir DIR]\n"
      "  lgg_fuzz replay <repro.txt> [...] [--trace FILE]\n"
      "                  [--trace-tree[=FILE]] [--metrics[=FILE]]\n"
      "                  [--flamegraph[=FILE]] [--trace-cap N] [--threads T]\n"
      "  lgg_fuzz corpus <dir> [replay's flags]\n"
      "  lgg_fuzz shrink <repro.txt>\n"
      "output flags print to stdout when bare, or write --flag=FILE\n";
  std::exit(2);
}

/// Replay one repro through the full cross-product; prints findings.
/// Returns the number of findings.
std::size_t replay_file(const std::string& path,
                        const fuzz::EngineOptions& opts) {
  const fuzz::Repro repro = fuzz::read_repro_file(path);
  std::size_t findings = 0;

  // Span name from the repro's own slug (file content, not file path),
  // so traces stay byte-identical wherever the corpus is checked out.
  obs::Scope span(opts.obs,
                  opts.obs != nullptr ? "fuzz/replay[" + repro.name + "]"
                                      : std::string(),
                  "replay");

  const std::uint64_t oracle = fuzz::oracle_triangles(repro.graph);
  if (oracle != repro.oracle) {
    std::cout << path << ": stored oracle " << repro.oracle
              << " != recomputed " << oracle << "\n";
    ++findings;
  }
  const auto found =
      fuzz::check_graph(repro.graph, repro.spec.empty() ? repro.name
                                                        : repro.spec,
                        opts);
  for (const auto& f : found) std::cout << path << ": " << describe(f) << "\n";
  findings += found.size();

  if (span) {
    span.arg("vertices",
             static_cast<std::uint64_t>(repro.graph.num_vertices()));
    span.arg("edges", static_cast<std::uint64_t>(repro.graph.num_edges()));
    span.arg("oracle", oracle);
    span.arg("findings", static_cast<std::uint64_t>(findings));
  }
  if (opts.obs != nullptr) {
    opts.obs->metrics.count("lgg_fuzz_replays_total");
    if (findings > 0)
      opts.obs->metrics.count("lgg_fuzz_replay_findings_total",
                              findings);
  }

  std::cout << path << ": " << repro.graph.num_vertices() << "v/"
            << repro.graph.num_edges() << "e oracle=" << oracle << " "
            << (findings ? "FINDINGS" : "ok") << "\n";
  return findings;
}

/// The observability flags and --threads of replay and corpus.  --threads
/// T checks every repro serial and on a pool of max(T, 1) workers; the
/// exports are byte-identical across T: policy labels omit thread counts
/// and every span arg is repro-content-derived.
void take_replay_flags(std::vector<std::string>& args, ObsFlags& obsf,
                       fuzz::EngineOptions& opts) {
  obsf.take(args, usage);
  if (obsf.profiling)
    usage("--profile/--profile-tree: the fuzz engine runs no profiler");
  if (const auto n = take_u64(args, "--threads", usage))
    opts.policies = {gpusim::ExecPolicy::serial(),
                     gpusim::ExecPolicy::parallel(
                         *n == 0 ? 1 : static_cast<std::size_t>(*n))};
  reject_unknown_flags(args, usage);
  opts.obs = obsf.session();
}

int cmd_campaign(std::vector<std::string> args) {
  fuzz::EngineOptions opts;
  opts.master_seed = take_u64(args, "--seed", 1, usage);
  opts.max_iterations = take_u64(args, "--iterations", 500, usage);
  opts.max_findings = take_u64(args, "--max-findings", 16, usage);
  opts.limits.max_vertices = take_u64(args, "--max-vertices", 72, usage);
  opts.time_budget_s = take_f64(args, "--seconds", opts.time_budget_s, usage);
  std::string corpus;
  if (take_value(args, "--corpus", corpus, usage)) opts.corpus_dir = corpus;
  if (take_flag(args, "--no-shrink")) opts.shrink = false;
  if (take_flag(args, "--serial-only")) {
    opts.policies = {gpusim::ExecPolicy::serial()};
  } else if (const auto n = take_u64(args, "--threads", usage)) {
    opts.policies = {gpusim::ExecPolicy::serial(),
                     gpusim::ExecPolicy::parallel(
                         static_cast<std::size_t>(*n))};
  }
  take_faults(args, opts.fault_rate, opts.fault_seed, usage);
  opts.fault_max_retries = static_cast<std::uint32_t>(
      take_u64(args, "--max-retries", opts.fault_max_retries, usage));
  take_failover(args, opts.fault_failover, usage);
  std::string trace_dir;
  obs::Session session;
  if (take_value(args, "--trace-dir", trace_dir, usage)) opts.obs = &session;
  reject_extra_args(args, 0, usage);

  // Stream everything: log lines and repro paths print as they happen, and
  // the engine never buffers findings (or their graphs) in memory.
  opts.buffer_log = false;
  opts.keep_findings = false;
  opts.on_log_line = [](const std::string& line) {
    std::cout << line << "\n";
  };
  opts.on_finding = [](const fuzz::Finding& f) {
    if (!f.repro_path.empty())
      std::cout << "repro written: " << f.repro_path << "\n";
  };

  const auto result = fuzz::run_campaign(opts);
  if (opts.obs != nullptr) {
    // Campaign observability exports: Chrome trace, span tree and
    // Prometheus dump side by side in the requested directory.
    std::filesystem::create_directories(trace_dir);
    const auto write = [&](const char* name, const std::string& text) {
      const std::string path = std::filesystem::path(trace_dir) / name;
      write_output(path, text, usage);
      std::cout << "trace written: " << path << "\n";
    };
    write("campaign-trace.json", obs::chrome_trace_json(session.tracer));
    write("campaign-spans.txt", obs::span_tree_text(session.tracer));
    write("campaign-metrics.prom", session.metrics.prometheus_text());
  }
  return result.findings_count == 0 ? 0 : 1;
}

int cmd_replay(std::vector<std::string> args) {
  fuzz::EngineOptions opts;
  ObsFlags obsf;
  take_replay_flags(args, obsf, opts);
  if (args.empty()) usage("replay needs at least one repro file");
  std::size_t findings = 0;
  for (const auto& path : args) findings += replay_file(path, opts);
  obsf.finish(usage);
  return findings == 0 ? 0 : 1;
}

int cmd_corpus(std::vector<std::string> args) {
  fuzz::EngineOptions opts;
  ObsFlags obsf;
  take_replay_flags(args, obsf, opts);
  if (args.size() != 1) usage("corpus needs exactly one directory");
  const auto files = fuzz::list_repro_files(args[0]);
  if (files.empty()) {
    std::cerr << "warning: no repro files in " << args[0] << "\n";
    return 0;
  }
  obs::Scope corpus_span(opts.obs, "fuzz/corpus", "replay");
  std::size_t findings = 0;
  for (const auto& path : files) findings += replay_file(path, opts);
  if (corpus_span) {
    corpus_span.arg("repros", static_cast<std::uint64_t>(files.size()));
    corpus_span.arg("findings", static_cast<std::uint64_t>(findings));
  }
  corpus_span.close();
  std::cout << files.size() << " repros, "
            << (findings ? "FINDINGS" : "all ok") << "\n";
  obsf.finish(usage);
  return findings == 0 ? 0 : 1;
}

int cmd_shrink(const std::vector<std::string>& args) {
  if (args.size() != 1) usage("shrink needs exactly one repro file");
  fuzz::Repro repro = fuzz::read_repro_file(args[0]);
  fuzz::EngineOptions opts;
  const auto findings = fuzz::check_graph(repro.graph, repro.spec, opts);
  if (findings.empty()) {
    std::cout << args[0] << ": no finding reproduces; nothing to shrink\n";
    return 0;
  }
  // Shrink against "any path still disagrees" so the repro stays a repro
  // for whichever path the original capture named.
  const auto still_fails = [&opts](const graph::Graph& g) {
    return !fuzz::check_graph(g, "", opts).empty();
  };
  const auto shrunk = fuzz::shrink_graph(repro.graph, still_fails);
  std::cout << args[0] << ": " << repro.graph.num_vertices() << "v/"
            << repro.graph.num_edges() << "e -> "
            << shrunk.graph.num_vertices() << "v/"
            << shrunk.graph.num_edges() << "e (" << shrunk.probes
            << " probes" << (shrunk.minimal ? ", 1-minimal" : "") << ")\n";
  repro.graph = shrunk.graph;
  repro.oracle = fuzz::oracle_triangles(shrunk.graph);
  fuzz::write_repro_file(args[0], repro);
  return 1;  // a reproducing finding is still a failure signal
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "campaign") return cmd_campaign(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "corpus") return cmd_corpus(args);
    if (command == "shrink") return cmd_shrink(args);
    usage("unknown command");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
