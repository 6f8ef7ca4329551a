// Host-wall benchmark: command-line entry point.
//
//   perfbench --workload <fig11_sim|snap_admit|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints human-readable detail, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
// perfbench/run.py builds this binary and forwards its arguments.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

/// CPUs this process may run on.
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0
             ? static_cast<std::size_t>(CPU_COUNT(&set))
             : 1;
}

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--work-dir <dir>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload")
        cfg.workload = value;
      else if (flag == "--seed")
        cfg.seed = std::stoull(value);
      else if (flag == "--seconds")
        cfg.seconds = std::stod(value);
      else if (flag == "--trace")
        cfg.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir")
        cfg.work_dir = value;
      else
        usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end())
    usage("unknown workload '" + cfg.workload + "'");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");

  // Every pool is the library's shared pool, sized to the hardware
  // concurrency; on a host where that exceeds nproc, it is oversubscribed.
  const std::size_t cpus = nproc();
  const std::size_t pool = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "workload=" << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace << "\n"
            << "threads: k=" << pool << " (lgg::ThreadPool::shared(); nproc="
            << cpus << (pool > cpus ? ", oversubscribed" : "") << ")\n";

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
