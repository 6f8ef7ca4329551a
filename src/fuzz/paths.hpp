// The registry of independently-engineered counting paths that the
// differential fuzzer cross-checks (cf. Wang et al., "A Comparative Study
// on Exact Triangle Counting Algorithms on the GPU" — the same
// many-implementations-one-answer structure).
//
// A path computes the triangle count (or an estimate, or a self-checked
// invariant) of a graph through one engineering route:
//
//   exact      CPU oracles, the host DODG counter (serial vs pooled), the
//              four Section VIII combination strategies,
//              the simulated-GPU kernels under every layout, the hybrid
//              Sections V-VI pipeline, k-count(k=3), external streaming —
//              all must equal the forward-algorithm oracle bit-for-bit;
//   estimate   DOULION-style randomized estimators — must land within the
//              statistical tolerance the path itself reports;
//   invariant  paths whose result is not a count (GPU BFS vs host BFS,
//              3-truss closure) — report 0 when the invariant holds.
//
// Paths marked policy_sensitive run once per ExecPolicy under test, which
// is how the engine checks the serial/parallel bit-identical contract of
// DESIGN.md §8; GPU paths run with the configured SancheckMode armed, so
// a hazard surfaces as a finding even when the count happens to be right.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpusim/executor.hpp"
#include "graph/graph.hpp"
#include "resilience/runner.hpp"
#include "sancheck/sancheck.hpp"

namespace lgg::fuzz {

enum class PathKind : int { kExact = 0, kEstimate = 1, kInvariant = 2 };

[[nodiscard]] const char* path_kind_name(PathKind kind) noexcept;

struct PathContext {
  /// Host execution policy for simulator-backed paths.
  gpusim::ExecPolicy exec = gpusim::ExecPolicy::serial();
  /// Hazard analysis mode armed on simulator-backed paths.  kStrict makes
  /// any hazard throw, which the engine classifies as a finding.
  sancheck::SancheckMode sancheck = sancheck::SancheckMode::kStrict;
  /// Deterministic per-iteration seed for randomized paths (DOULION).
  std::uint64_t seed = 0;
};

struct PathOutcome {
  /// The count / estimate (kExact, kEstimate) or 0-means-ok (kInvariant).
  double value = 0.0;
  /// kEstimate only: |value - oracle| beyond this is a finding.
  double tolerance = 0.0;
  /// Extra context attached to a finding (e.g. which invariant broke).
  std::string detail;
};

struct CountingPath {
  std::string name;  // e.g. "gpu/triangle-naive"
  PathKind kind = PathKind::kExact;
  /// Run under every ExecPolicy the engine tests (simulator paths).
  bool policy_sensitive = false;
  /// Guard for paths with cost or precondition limits; empty = always.
  std::function<bool(const graph::Graph&)> applicable;
  std::function<PathOutcome(const graph::Graph&, const PathContext&)> run;
};

/// The reference value every exact path must reproduce: the forward
/// (oriented) CPU algorithm, the best-tested counter in the library.
[[nodiscard]] std::uint64_t oracle_triangles(const graph::Graph& g);

/// The full default cross-product (~20 paths; see the file comment).
[[nodiscard]] std::vector<CountingPath> default_paths();

/// The fault-campaign path (DESIGN.md §11): runs resilience::run_resilient
/// with a FaultInjector at per-site rate `rate`, seeded from
/// (ctx.seed, salt) so the fault pattern is deterministic per iteration
/// and identical across ExecPolicies.  kExact — recovery must reproduce
/// the oracle count despite the injected faults; an uncertified run
/// surfaces in the finding detail.
[[nodiscard]] CountingPath resilient_fault_path(
    double rate, std::uint64_t salt, std::uint32_t max_retries,
    resilience::Failover failover);

}  // namespace lgg::fuzz
