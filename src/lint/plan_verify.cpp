#include "lint/plan_verify.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "core/bfs_gpu.hpp"
#include "core/hybrid.hpp"
#include "core/intersect_gpu.hpp"
#include "core/subgraph_gpu.hpp"
#include "core/triangle_gpu.hpp"
#include "graph/generators.hpp"
#include "sancheck/footprint.hpp"

namespace lgg::lint {

std::size_t PlanReport::total_findings() const noexcept {
  std::size_t n = 0;
  for (const PlanCheck& c : checks) n += c.findings.size();
  return n;
}

std::ostream& operator<<(std::ostream& os, const PlanReport& r) {
  os << "plan verification: " << r.checks.size() << " check(s), "
     << r.total_findings() << " finding(s)";
  for (const PlanCheck& c : r.checks) {
    if (c.clean()) continue;
    os << "\n  " << c.name << ':';
    for (const std::string& f : c.findings) os << "\n    " << f;
  }
  return os;
}

std::vector<std::string> check_repair(const std::vector<std::uint64_t>& jobs,
                                      const sched::Assignment& before,
                                      const std::vector<std::uint32_t>& lost,
                                      const sched::Assignment& after) {
  std::vector<std::string> findings;
  const auto fail = [&](const std::string& msg) { findings.push_back(msg); };
  const std::uint32_t machines =
      static_cast<std::uint32_t>(before.load.size());

  std::vector<bool> is_lost(machines, false);
  for (const std::uint32_t l : lost) {
    if (l >= machines) {
      fail("lost machine " + std::to_string(l) + " out of range");
      continue;
    }
    is_lost[l] = true;
  }

  // 1. shape
  if (after.machine_of.size() != jobs.size() ||
      after.load.size() != machines) {
    fail("repaired assignment shape mismatch (" +
         std::to_string(after.machine_of.size()) + " jobs, " +
         std::to_string(after.load.size()) + " machines)");
    return findings;  // the remaining clauses would index out of bounds
  }

  std::uint64_t displaced_max = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::uint32_t was = before.machine_of[j];
    const std::uint32_t now = after.machine_of[j];
    if (now >= machines) {
      fail("job " + std::to_string(j) + " assigned to machine " +
           std::to_string(now) + " out of range");
      continue;
    }
    // 2. nothing on the dead machines
    if (is_lost[now]) {
      fail("job " + std::to_string(j) + " still assigned to lost machine " +
           std::to_string(now));
    }
    // 3. survivors keep their jobs
    if (was < machines && !is_lost[was] && now != was) {
      fail("job " + std::to_string(j) + " moved from surviving machine " +
           std::to_string(was) + " to " + std::to_string(now));
    }
    if (was < machines && is_lost[was])
      displaced_max = std::max(displaced_max, jobs[j]);
  }

  // 4. loads and makespan recompute exactly from machine_of
  const sched::Assignment re =
      sched::recompute(jobs, after.machine_of, machines);
  for (std::uint32_t m = 0; m < machines; ++m) {
    if (re.load[m] != after.load[m]) {
      fail("machine " + std::to_string(m) + " load " +
           std::to_string(after.load[m]) + " does not recompute (" +
           std::to_string(re.load[m]) + ")");
    }
  }
  if (re.makespan != after.makespan) {
    fail("makespan " + std::to_string(after.makespan) +
         " does not recompute (" + std::to_string(re.makespan) + ")");
  }

  // 5. lost machines drain
  for (std::uint32_t m = 0; m < machines; ++m) {
    if (is_lost[m] && after.load[m] != 0) {
      fail("lost machine " + std::to_string(m) + " still carries load " +
           std::to_string(after.load[m]));
    }
  }

  // 6. Graham-style repair bound
  std::uint32_t survivors = 0;
  for (std::uint32_t m = 0; m < machines; ++m)
    if (!is_lost[m]) ++survivors;
  if (survivors > 0) {
    const std::uint64_t bound =
        std::max(before.makespan,
                 sched::makespan_lower_bound(jobs, survivors) + displaced_max);
    if (after.makespan > bound) {
      fail("repaired makespan " + std::to_string(after.makespan) +
           " exceeds the repair bound " + std::to_string(bound));
    }
  }
  return findings;
}

std::vector<std::string> verify_reassignment(
    const std::vector<std::uint64_t>& jobs, std::uint32_t machines,
    std::uint32_t loss_k) {
  std::vector<std::string> findings;
  if (machines == 0) return findings;  // nothing schedulable, nothing to lose
  const sched::Assignment before = sched::lpt_schedule(jobs, machines);

  // Enumerate every loss subset of size 1..loss_k that leaves a survivor,
  // in lexicographic order (deterministic reporting).
  const std::uint32_t max_size =
      std::min(loss_k, machines > 0 ? machines - 1 : 0);
  std::vector<std::uint32_t> subset;
  const auto run = [&](const std::vector<std::uint32_t>& lost) {
    const sched::Assignment after =
        sched::reassign_after_loss(jobs, before, lost);
    std::ostringstream tag;
    tag << "loss {";
    for (std::size_t i = 0; i < lost.size(); ++i)
      tag << (i ? "," : "") << lost[i];
    tag << "}: ";
    for (const std::string& f : check_repair(jobs, before, lost, after))
      findings.push_back(tag.str() + f);
  };
  const auto descend = [&](const auto& self, std::uint32_t next) -> void {
    if (!subset.empty() && subset.size() <= max_size) run(subset);
    if (subset.size() == max_size) return;
    for (std::uint32_t m = next; m < machines; ++m) {
      subset.push_back(m);
      self(self, m + 1);
      subset.pop_back();
    }
  };
  descend(descend, 0);
  return findings;
}

namespace {

void add_spec(PlanReport& report, sancheck::FootprintSpec spec,
              const std::string& suffix = "") {
  PlanCheck check;
  check.name = spec.name + suffix;
  const sancheck::FootprintReport fr = sancheck::lint_footprint(spec);
  for (const gpusim::Hazard& h : fr.findings)
    check.findings.push_back(h.message);
  report.checks.push_back(std::move(check));
}

}  // namespace

PlanReport verify_pipeline(const graph::Graph& g, std::uint32_t loss_k) {
  PlanReport report;

  for (const core::GpuLayout layout :
       {core::GpuLayout::kNaive, core::GpuLayout::kCoalesced,
        core::GpuLayout::kCoalescedAntiCamping}) {
    core::GpuTriangleOptions opts;
    opts.layout = layout;
    add_spec(report, core::als_footprint_spec(g, opts));
  }
  add_spec(report, core::intersect_footprint_spec(g));
  add_spec(report, core::bfs_footprint_spec(g));
  add_spec(report, core::subgraph_footprint_spec(g, 3), "[clique k=3]");

  const core::HybridFootprint hybrid = core::hybrid_footprint_spec(g);
  for (const sancheck::FootprintSpec& spec : hybrid.chunk_specs)
    add_spec(report, spec);

  PlanCheck repair;
  repair.name = "sched/repair";
  repair.findings =
      verify_reassignment(hybrid.chunk_tests, hybrid.sm_count, loss_k);
  report.checks.push_back(std::move(repair));
  return report;
}

PlanReport verify_default_pipelines(std::uint32_t loss_k) {
  // Representative shapes: deep layered community graph (the paper's
  // regime), dense G(n,p), a star (degenerate BFS tree), one clique
  // (dense single chunk), and a multi-component union.
  std::vector<std::pair<std::string, graph::Graph>> suite;
  suite.emplace_back("layered",
                     graph::layered_random(240, 24, 0.25, 0.08, 7));
  suite.emplace_back("gnp", graph::erdos_renyi(96, 0.12, 11));
  suite.emplace_back("star", graph::star(64));
  suite.emplace_back("clique", graph::complete(14));
  suite.emplace_back("multi", graph::disjoint_union(graph::complete(8),
                                                    graph::cycle(40)));

  PlanReport report;
  for (auto& [name, g] : suite) {
    PlanReport one = verify_pipeline(g, loss_k);
    for (PlanCheck& check : one.checks) {
      check.name = name + "/" + check.name;
      report.checks.push_back(std::move(check));
    }
  }
  return report;
}

}  // namespace lgg::lint
