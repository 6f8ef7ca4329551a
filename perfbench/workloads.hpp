// The benchmark's three workloads (perfbench/README.md says why each was
// chosen and which layer metric moves which end-to-end metric).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for generated SNAP files and the span dump.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Set up, warm up and measure one workload.  Human-readable detail goes
/// to stdout; throws when set-up fails.
[[nodiscard]] RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench
