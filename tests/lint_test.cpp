// Tests for the static determinism & plan-safety analyzer (DESIGN.md §14):
// exact rule/file/line asserts over the seeded fixture corpus, allowlist
// semantics (suffix match, used-tracking, stale detection), footprint
// proofs for all five kernel spec builders with targeted refutations, and
// the schedule-repair verification clauses against tampered repairs.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bfs_gpu.hpp"
#include "core/hybrid.hpp"
#include "core/intersect_gpu.hpp"
#include "core/subgraph_gpu.hpp"
#include "core/triangle_gpu.hpp"
#include "graph/generators.hpp"
#include "lint/plan_verify.hpp"
#include "lint/source_lint.hpp"
#include "sancheck/footprint.hpp"

namespace lint = lgg::lint;
namespace core = lgg::core;
namespace graph = lgg::graph;
namespace sancheck = lgg::sancheck;
namespace sched = lgg::sched;

namespace {

std::string fixture_path(const std::string& name) {
  return std::string(LGG_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<lint::Violation> lint_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint::lint_source(path, buf.str());
}

void expect_violation(const std::vector<lint::Violation>& vs, std::size_t i,
                      const std::string& rule, std::uint32_t line) {
  ASSERT_LT(i, vs.size());
  EXPECT_EQ(vs[i].rule, rule);
  EXPECT_EQ(vs[i].line, line);
}

}  // namespace

// ---- rule catalog ----------------------------------------------------

TEST(LintRules, CatalogIsStable) {
  const auto& rules = lint::source_rules();
  ASSERT_EQ(rules.size(), 7u);
  EXPECT_EQ(rules[0].id, "det-wall-clock");
  EXPECT_EQ(rules[1].id, "det-rand");
  EXPECT_EQ(rules[2].id, "det-thread-id");
  EXPECT_EQ(rules[3].id, "det-pointer-hash");
  EXPECT_EQ(rules[4].id, "det-unordered-iter");
  EXPECT_EQ(rules[5].id, "lint-stale-allow");
  EXPECT_EQ(rules[6].id, "lint-io");
  for (const lint::Rule& r : rules) EXPECT_FALSE(r.summary.empty()) << r.id;
}

// ---- one fixture per rule, exact rule/file/line ----------------------

TEST(LintFixtures, WallClock) {
  const auto vs = lint_fixture("wall_clock.cpp");
  ASSERT_EQ(vs.size(), 2u);
  expect_violation(vs, 0, "det-wall-clock", 7);  // steady_clock::now
  expect_violation(vs, 1, "det-wall-clock", 9);  // time(nullptr)
  EXPECT_EQ(vs[0].file, fixture_path("wall_clock.cpp"));
}

TEST(LintFixtures, Rand) {
  const auto vs = lint_fixture("rand.cpp");
  ASSERT_EQ(vs.size(), 2u);
  expect_violation(vs, 0, "det-rand", 6);  // random_device
  expect_violation(vs, 1, "det-rand", 8);  // rand()
}

TEST(LintFixtures, ThreadId) {
  const auto vs = lint_fixture("thread_id.cpp");
  ASSERT_EQ(vs.size(), 2u);
  expect_violation(vs, 0, "det-thread-id", 4);  // thread::id
  expect_violation(vs, 1, "det-thread-id", 5);  // this_thread::get_id
}

TEST(LintFixtures, PointerHash) {
  const auto vs = lint_fixture("pointer_hash.cpp");
  ASSERT_EQ(vs.size(), 2u);
  expect_violation(vs, 0, "det-pointer-hash", 6);  // hash<const int*>
  expect_violation(vs, 1, "det-pointer-hash", 7);  // cast to uintptr_t
}

TEST(LintFixtures, UnorderedIter) {
  const auto vs = lint_fixture("unordered_iter.cpp");
  ASSERT_EQ(vs.size(), 2u);
  expect_violation(vs, 0, "det-unordered-iter", 7);   // range-for
  expect_violation(vs, 1, "det-unordered-iter", 10);  // .begin()
}

TEST(LintFixtures, CleanFileHasNoViolations) {
  EXPECT_TRUE(lint_fixture("clean.cpp").empty());
}

// ---- scanner details -------------------------------------------------

TEST(LintScanner, LiteralsAndCommentsAreInvisible) {
  const std::string src =
      "// rand() in a comment\n"
      "/* std::steady_clock::now() in a block */\n"
      "const char* a = \"random_device\";\n"
      "const char* b = R\"(this_thread::get_id())\";\n"
      "const char c = 'r';\n";
  EXPECT_TRUE(lint::lint_source("mem.cpp", src).empty());
}

TEST(LintScanner, MemberCallsAndDeclarationsDoNotFire) {
  const std::string src =
      "double time(double x);\n"      // declaration, not a call
      "double f(S s) { return s.time() + s2->clock(); }\n";  // members
  EXPECT_TRUE(lint::lint_source("mem.cpp", src).empty());
}

TEST(LintScanner, QualifiedAndReturnedCallsFire) {
  const std::string src = "long f() { return std::time(nullptr); }\n";
  const auto vs = lint::lint_source("mem.cpp", src);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "det-wall-clock");
}

TEST(LintScanner, ValueTypeHashDoesNotFire) {
  const std::string src =
      "std::hash<std::string> h;\n"
      "std::unordered_map<int, int> lookup_only;\n"
      "int g(int k) { return lookup_only.count(k); }\n";
  EXPECT_TRUE(lint::lint_source("mem.cpp", src).empty());
}

// ---- allowlist -------------------------------------------------------

TEST(LintAllowlist, SuffixMatchOnPathBoundary) {
  auto allow = lint::Allowlist::parse(
      "det-unordered-iter core/social.cpp sorted after\n", "allow.txt");
  ASSERT_TRUE(allow.parse_errors().empty());
  EXPECT_TRUE(allow.allows("det-unordered-iter", "src/core/social.cpp"));
  EXPECT_FALSE(allow.allows("det-unordered-iter", "src/core/asocial.cpp"));
  EXPECT_FALSE(allow.allows("det-wall-clock", "src/core/social.cpp"));
}

TEST(LintAllowlist, StaleEntriesSurface) {
  auto allow = lint::Allowlist::parse(
      "# comment\n"
      "det-rand src/a.cpp used below\n"
      "det-rand src/never.cpp never matched\n",
      "allow.txt");
  ASSERT_EQ(allow.entries().size(), 2u);
  EXPECT_TRUE(allow.allows("det-rand", "src/a.cpp"));
  const auto stale = allow.stale();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "lint-stale-allow");
  EXPECT_EQ(stale[0].file, "allow.txt");
  EXPECT_EQ(stale[0].line, 3u);
}

TEST(LintAllowlist, MalformedAndUnknownRuleLinesAreErrors) {
  auto allow = lint::Allowlist::parse(
      "det-rand missing-justification\n"
      "not-a-rule src/a.cpp why\n",
      "allow.txt");
  EXPECT_TRUE(allow.entries().empty());
  EXPECT_EQ(allow.parse_errors().size(), 2u);
}

TEST(LintAllowlist, ShippedAllowlistKeepsTreeClean) {
  std::ifstream in(std::string(LGG_REPO_DIR) + "/ci/lint_allow.txt",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buf;
  buf << in.rdbuf();
  auto allow = lint::Allowlist::parse(buf.str(), "ci/lint_allow.txt");
  EXPECT_TRUE(allow.parse_errors().empty());
  const auto files = lint::collect_sources(
      {std::string(LGG_REPO_DIR) + "/src", std::string(LGG_REPO_DIR) + "/tools",
       std::string(LGG_REPO_DIR) + "/bench"});
  EXPECT_GT(files.size(), 100u);
  const auto found = lint::lint_files(files, &allow);
  for (const auto& v : found)
    ADD_FAILURE() << v.file << ':' << v.line << " [" << v.rule << "] "
                  << v.message;
  for (const auto& v : allow.stale())
    ADD_FAILURE() << "stale allowlist entry at line " << v.line;
}

// ---- footprint proofs for the five kernels ---------------------------

TEST(PlanFootprint, TriangleAllLayoutsProveClean) {
  const graph::Graph g = graph::layered_random(160, 20, 0.3, 0.1, 5);
  for (const auto layout :
       {core::GpuLayout::kNaive, core::GpuLayout::kCoalesced,
        core::GpuLayout::kCoalescedAntiCamping}) {
    core::GpuTriangleOptions opts;
    opts.layout = layout;
    const auto spec = core::als_footprint_spec(g, opts);
    EXPECT_FALSE(spec.name.empty());
    EXPECT_TRUE(sancheck::lint_footprint(spec).clean()) << spec.name;
  }
}

TEST(PlanFootprint, IntersectProvesCleanAndRefutesShrunkenBlock) {
  const graph::Graph g = graph::erdos_renyi(80, 0.15, 3);
  auto spec = core::intersect_footprint_spec(g);
  EXPECT_EQ(spec.name, "gpu/intersect");
  EXPECT_TRUE(sancheck::lint_footprint(spec).clean());
  ASSERT_FALSE(spec.blocks.empty());
  spec.blocks[1].bytes /= 2;  // neighbour array too small
  const auto report = sancheck::lint_footprint(spec);
  EXPECT_FALSE(report.contained);
}

TEST(PlanFootprint, BfsProvesCleanAndRefutesMissingWorkers) {
  const graph::Graph g = graph::grid2d(12, 12);
  auto spec = core::bfs_footprint_spec(g);
  EXPECT_EQ(spec.name, "gpu/bfs");
  EXPECT_EQ(spec.division, sancheck::WorkDivision::kThreadPerItem);
  EXPECT_TRUE(sancheck::lint_footprint(spec).clean());
  spec.workers = spec.total_tests - 1;  // one vertex uncovered
  const auto report = sancheck::lint_footprint(spec);
  EXPECT_FALSE(report.plan_consistent);
}

TEST(PlanFootprint, SubgraphProvesCleanAndRefutesBadIndexBound) {
  const graph::Graph g = graph::layered_random(120, 16, 0.3, 0.1, 9);
  for (const std::uint32_t k : {3u, 4u}) {
    auto spec = core::subgraph_footprint_spec(g, k);
    EXPECT_EQ(spec.name, "gpu/subgraph");
    EXPECT_TRUE(sancheck::lint_footprint(spec).clean()) << "k=" << k;
  }
  auto spec = core::subgraph_footprint_spec(g, 3);
  ASSERT_FALSE(spec.blocks.empty());
  spec.blocks[0].bytes /= 4;  // matrix block cannot hold the last row
  EXPECT_FALSE(sancheck::lint_footprint(spec).contained);
}

TEST(PlanFootprint, HybridChunksProveCleanAndRefuteTampering) {
  const graph::Graph g = graph::layered_random(220, 18, 0.3, 0.12, 13);
  const core::HybridFootprint fp = core::hybrid_footprint_spec(g);
  ASSERT_FALSE(fp.chunk_specs.empty());
  EXPECT_GT(fp.sm_count, 0u);
  EXPECT_GE(fp.chunk_tests.size(), fp.chunk_specs.size());
  for (const auto& spec : fp.chunk_specs) {
    EXPECT_EQ(spec.division, sancheck::WorkDivision::kCyclic);
    EXPECT_TRUE(sancheck::lint_footprint(spec).clean()) << spec.name;
  }
  // Tamper: claim one more test than the chunk's jobs cover.
  auto bad = fp.chunk_specs.front();
  bad.total_tests += 1;
  EXPECT_FALSE(sancheck::lint_footprint(bad).plan_consistent);
}

TEST(PlanFootprint, HybridSharedChunksBoundTheSutm) {
  // A clique chunk small enough to be shared-resident: its spec must carry
  // the s-utm LinearAccess against the shared-memory block.
  const graph::Graph g = graph::complete(24);
  const core::HybridFootprint fp = core::hybrid_footprint_spec(g);
  ASSERT_FALSE(fp.chunk_specs.empty());
  bool saw_shared = false;
  for (const auto& spec : fp.chunk_specs) {
    if (spec.name.find("/shared") == std::string::npos) continue;
    saw_shared = true;
    ASSERT_FALSE(spec.accesses.empty());
    EXPECT_EQ(spec.accesses[0].what, "s-utm words");
    for (const auto& job : spec.jobs)
      EXPECT_EQ(job.block, sancheck::kNoBlock);
  }
  EXPECT_TRUE(saw_shared);
}

// ---- schedule-repair verification ------------------------------------

namespace {
const std::vector<std::uint64_t> kJobs = {9, 7, 7, 5, 4, 3, 2, 1, 0};
}

TEST(PlanRepair, GenuineRepairPassesAllClauses) {
  const auto before = sched::lpt_schedule(kJobs, 4);
  const std::vector<std::uint32_t> lost = {1};
  const auto after = sched::reassign_after_loss(kJobs, before, lost);
  EXPECT_TRUE(lint::check_repair(kJobs, before, lost, after).empty());
}

TEST(PlanRepair, DetectsJobLeftOnLostMachine) {
  const auto before = sched::lpt_schedule(kJobs, 4);
  const std::vector<std::uint32_t> lost = {2};
  auto after = sched::reassign_after_loss(kJobs, before, lost);
  // Find a job and strand it back on the dead machine.
  after.machine_of[0] = 2;
  after = sched::recompute(kJobs, after.machine_of, 4);
  const auto findings = lint::check_repair(kJobs, before, lost, after);
  ASSERT_FALSE(findings.empty());
  bool saw = false;
  for (const auto& f : findings)
    saw = saw || f.find("lost machine") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(PlanRepair, DetectsSurvivorJobMoved) {
  const auto before = sched::lpt_schedule(kJobs, 4);
  const std::vector<std::uint32_t> lost = {0};
  auto after = sched::reassign_after_loss(kJobs, before, lost);
  // Move a job that was on a surviving machine somewhere else.
  for (std::size_t j = 0; j < kJobs.size(); ++j) {
    if (before.machine_of[j] == 1) {
      after.machine_of[j] = 2;
      break;
    }
  }
  after = sched::recompute(kJobs, after.machine_of, 4);
  const auto findings = lint::check_repair(kJobs, before, lost, after);
  bool saw = false;
  for (const auto& f : findings)
    saw = saw || f.find("moved from surviving") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(PlanRepair, DetectsStaleLoads) {
  const auto before = sched::lpt_schedule(kJobs, 4);
  const std::vector<std::uint32_t> lost = {3};
  auto after = sched::reassign_after_loss(kJobs, before, lost);
  after.load[3] += 5;  // stale total on the dead machine
  const auto findings = lint::check_repair(kJobs, before, lost, after);
  bool recompute_hit = false;
  bool drain_hit = false;
  for (const auto& f : findings) {
    recompute_hit =
        recompute_hit || f.find("does not recompute") != std::string::npos;
    drain_hit = drain_hit || f.find("still carries load") != std::string::npos;
  }
  EXPECT_TRUE(recompute_hit);
  EXPECT_TRUE(drain_hit);
}

TEST(PlanRepair, ExhaustiveVerificationUpToTwoLosses) {
  EXPECT_TRUE(lint::verify_reassignment(kJobs, 4, 1).empty());
  EXPECT_TRUE(lint::verify_reassignment(kJobs, 4, 2).empty());
  // loss_k larger than machines - 1 clamps: one survivor must remain.
  EXPECT_TRUE(lint::verify_reassignment(kJobs, 2, 5).empty());
  // Degenerate inputs stay provable.
  EXPECT_TRUE(lint::verify_reassignment({}, 4, 2).empty());
  EXPECT_TRUE(lint::verify_reassignment({0, 0, 0}, 3, 2).empty());
}

// ---- whole-pipeline verification -------------------------------------

TEST(PlanPipeline, RepresentativeGraphProvesClean) {
  const graph::Graph g = graph::layered_random(200, 20, 0.25, 0.1, 21);
  const lint::PlanReport report = lint::verify_pipeline(g, 2);
  EXPECT_EQ(report.total_findings(), 0u) << report;
  // All five kernels must be represented.
  bool tri = false, inter = false, bfs = false, sub = false, hyb = false,
       repair = false;
  for (const auto& check : report.checks) {
    tri = tri || check.name.find("gpu/triangle/") == 0;
    inter = inter || check.name == "gpu/intersect";
    bfs = bfs || check.name == "gpu/bfs";
    sub = sub || check.name.find("gpu/subgraph") == 0;
    hyb = hyb || check.name.find("hybrid/chunk") == 0;
    repair = repair || check.name == "sched/repair";
  }
  EXPECT_TRUE(tri && inter && bfs && sub && hyb && repair);
}

TEST(PlanPipeline, DefaultSuiteProvesClean) {
  const lint::PlanReport report = lint::verify_default_pipelines(1);
  EXPECT_EQ(report.total_findings(), 0u) << report;
  EXPECT_GT(report.checks.size(), 30u);
}
