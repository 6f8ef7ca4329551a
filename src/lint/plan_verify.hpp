// Whole-pipeline plan verification (DESIGN.md §14): static proofs that
// every kernel launch the pipeline can make stays in bounds, and that the
// Section VI scheduler's loss-repair path stays sound for EVERY loss
// pattern up to k dead SMs — all without simulating a single test.
//
// The footprint half fans sancheck::lint_footprint out over the five
// kernel spec builders (triangle in its three layouts, intersect, bfs,
// subgraph/k-count, and the hybrid pipeline's per-chunk launches).  The
// schedule half exhaustively enumerates loss subsets and checks each
// repaired assignment against the reassign_after_loss contract: full
// coverage on survivors only, survivors keep their jobs, loads recompute
// exactly, lost machines drain to zero, and the makespan respects the
// Graham-style repair bound.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sched/makespan.hpp"

namespace lgg::lint {

/// One verified property ("gpu/triangle[coalesced]", "sched/repair", ...).
struct PlanCheck {
  std::string name;
  std::vector<std::string> findings;  // empty = proven
  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
};

struct PlanReport {
  std::vector<PlanCheck> checks;
  [[nodiscard]] std::size_t total_findings() const noexcept;
};

std::ostream& operator<<(std::ostream& os, const PlanReport& r);

/// Check one repaired assignment against the contract of
/// sched::reassign_after_loss — exposed separately so tests can feed
/// tampered repairs and watch each clause refute:
///   1. shape: one machine per job, machines within range;
///   2. no job lands on a lost machine;
///   3. survivors keep exactly the jobs they had;
///   4. loads/makespan recompute from machine_of (no stale totals);
///   5. lost machines end with load 0;
///   6. makespan <= max(before, LB_survivors + max displaced job).
std::vector<std::string> check_repair(const std::vector<std::uint64_t>& jobs,
                                      const sched::Assignment& before,
                                      const std::vector<std::uint32_t>& lost,
                                      const sched::Assignment& after);

/// Prove reassign_after_loss sound over `jobs` scheduled LPT onto
/// `machines`, for EVERY loss subset of size 1..loss_k that leaves a
/// survivor.  Returns all findings (empty = proven).
std::vector<std::string> verify_reassignment(
    const std::vector<std::uint64_t>& jobs, std::uint32_t machines,
    std::uint32_t loss_k);

/// Run the full static verification for one graph: footprint proofs for
/// all five kernels plus schedule-repair proofs over the hybrid plan's
/// own chunk weights.
PlanReport verify_pipeline(const graph::Graph& g, std::uint32_t loss_k = 1);

/// verify_pipeline over a fixed suite of representative graphs (deep
/// layered, dense G(n,p), star, clique, multi-component) — what
/// `lgg_lint --verify-plans` and the CI lint stage run.
PlanReport verify_default_pipelines(std::uint32_t loss_k = 1);

}  // namespace lgg::lint
