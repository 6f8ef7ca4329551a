// The differential fuzzing engine: spec sampling, finding classification,
// the delta-debugging shrinker (including the acceptance demo: a seeded
// fault auto-shrunk to a <= 10-vertex reproducer), corpus round trips,
// and the bit-identical-findings-log determinism contract.
#include <gtest/gtest.h>

#include <sstream>

#include "lgg.hpp"

namespace lgg::fuzz {
namespace {

using graph::Graph;

// A deliberately broken exact counter: +1 whenever some vertex has degree
// >= 4.  The minimal graph exhibiting the fault is the 5-vertex star.
CountingPath broken_degree4_path() {
  CountingPath p;
  p.name = "test/degree4-broken";
  p.kind = PathKind::kExact;
  p.run = [](const Graph& g, const PathContext&) {
    std::uint64_t c = core::count_triangles_forward(g);
    if (g.max_degree() >= 4) ++c;  // the seeded fault
    return PathOutcome{static_cast<double>(c), 0.0, {}};
  };
  return p;
}

// --- spec sampling -------------------------------------------------------

TEST(SpecTest, SampledSpecsBuildAcrossAllFamilies) {
  Xoshiro256 rng(123);
  SamplerLimits limits;
  limits.max_vertices = 40;
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    const GraphSpec s = sample_spec(rng, limits);
    seen.insert(s.family);
    const Graph g = s.build();  // every sampled spec must materialise
    // max_vertices is a hard invariant: no family may overshoot it
    // (grid factors its sides, rmat fits 2^scale under the cap).
    EXPECT_LE(g.num_vertices(), limits.max_vertices) << s.to_string();
    EXPECT_FALSE(s.to_string().empty());
  }
  // 300 draws over 13 families: all of them should appear.
  EXPECT_EQ(seen.size(), spec_families().size());
}

TEST(SpecTest, MaxVerticesIsAHardInvariantAtEveryLimit) {
  // Property test: whatever the configured ceiling — including ones
  // smaller than the samplers' historical constants (grid's 8 rows,
  // bipartite's 12+1, rmat's 2^2) — no sampled spec builds a graph above
  // max(max_vertices, 2).
  for (const std::size_t max_vertices : {2u, 3u, 4u, 5u, 8u, 13u, 72u}) {
    Xoshiro256 rng(1000 + max_vertices);
    SamplerLimits limits;
    limits.max_vertices = max_vertices;
    const std::size_t cap = std::max<std::size_t>(max_vertices, 2);
    std::set<std::string> seen;
    for (int i = 0; i < 400; ++i) {
      const GraphSpec s = sample_spec(rng, limits);
      seen.insert(s.family);
      const Graph g = s.build();
      ASSERT_LE(g.num_vertices(), cap)
          << "limit " << max_vertices << ": " << s.to_string();
    }
    // Every family must still be reachable under tight limits.
    EXPECT_EQ(seen.size(), spec_families().size()) << "limit " << max_vertices;
  }
}

TEST(SpecTest, SpecBuildIsDeterministic) {
  Xoshiro256 rng(7);
  const GraphSpec s = sample_spec(rng);
  const Graph a = s.build();
  const Graph b = s.build();
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(SpecTest, UnknownFamilyThrows) {
  GraphSpec s;
  s.family = "no-such-family";
  EXPECT_THROW(s.build(), lgg::Error);
}

// --- shrinker ------------------------------------------------------------

TEST(Shrink, MinimizesTrianglePredicateToK3) {
  const auto r = shrink_graph(graph::complete(8), [](const Graph& g) {
    return core::count_triangles_forward(g) >= 1;
  });
  EXPECT_EQ(r.graph.num_vertices(), 3u);
  EXPECT_EQ(r.graph.num_edges(), 3u);
  EXPECT_TRUE(r.minimal);
}

TEST(Shrink, EdgePassStrandsThenVertexPassSweeps) {
  // Failure: "has a vertex of degree >= 3".  From K5 the minimum is the
  // 4-vertex star — reachable only by removing edges AND vertices.
  const auto r = shrink_graph(graph::complete(5), [](const Graph& g) {
    return g.max_degree() >= 3;
  });
  EXPECT_EQ(r.graph.num_vertices(), 4u);
  EXPECT_EQ(r.graph.num_edges(), 3u);
  EXPECT_TRUE(r.minimal);
}

TEST(Shrink, NonFailingInputReturnsUnchanged) {
  const Graph g = graph::cycle(6);
  const auto r = shrink_graph(g, [](const Graph&) { return false; });
  EXPECT_EQ(r.graph.num_vertices(), 6u);
  EXPECT_EQ(r.graph.num_edges(), 6u);
  EXPECT_FALSE(r.minimal);
}

TEST(Shrink, RespectsProbeBudget) {
  ShrinkOptions opts;
  opts.max_probes = 4;
  const auto r = shrink_graph(graph::complete(10), [](const Graph& g) {
    return core::count_triangles_forward(g) >= 1;
  }, opts);
  EXPECT_LE(r.probes, 4u);
  EXPECT_FALSE(r.minimal);
  // Whatever it returns must still fail.
  EXPECT_GE(core::count_triangles_forward(r.graph), 1u);
}

// --- corpus format -------------------------------------------------------

TEST(Corpus, RoundTripsGraphAndMetadata) {
  Repro r;
  r.name = "round-trip";
  r.spec = "complete 6 seed=0";
  r.note = "a note, with punctuation: [x]";
  r.oracle = 20;
  r.graph = graph::complete(6);
  std::stringstream ss;
  write_repro(ss, r);
  const Repro back = read_repro(ss);
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.spec, r.spec);
  EXPECT_EQ(back.note, r.note);
  EXPECT_EQ(back.oracle, 20u);
  EXPECT_EQ(back.graph.num_vertices(), 6u);
  EXPECT_EQ(back.graph.num_edges(), 15u);
}

TEST(Corpus, PreservesIsolatedVerticesViaNodesHeader) {
  Repro r;
  r.graph = Graph::from_edges(7, std::vector<graph::Edge>{{2, 5}});
  std::stringstream ss;
  write_repro(ss, r);
  const Repro back = read_repro(ss);
  EXPECT_EQ(back.graph.num_vertices(), 7u);
  EXPECT_EQ(back.graph.num_edges(), 1u);
}

TEST(Corpus, RejectsFilesWithoutMagic) {
  std::stringstream ss;
  ss << "# just an edge list\n0 1\n";
  EXPECT_THROW(read_repro(ss), lgg::Error);
}

// --- engine classification ----------------------------------------------

TEST(FuzzEngine, CleanPathsProduceNoFindings) {
  EngineOptions opts;  // default paths, serial+parallel, strict sancheck
  const auto findings =
      check_graph(graph::erdos_renyi(40, 0.15, 99), "gnp 40 0.15 seed=99",
                  opts);
  for (const auto& f : findings) ADD_FAILURE() << describe(f);
}

TEST(FuzzEngine, ClassifiesMismatch) {
  EngineOptions opts;
  opts.paths = {broken_degree4_path()};
  opts.policies = {gpusim::ExecPolicy::serial()};
  const auto findings = check_graph(graph::star(6), "star 6", opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kMismatch);
  EXPECT_EQ(findings[0].oracle, 0u);
  EXPECT_EQ(findings[0].got, 1.0);
  EXPECT_NE(describe(findings[0]).find("test/degree4-broken"),
            std::string::npos);
}

TEST(FuzzEngine, ClassifiesException) {
  CountingPath p;
  p.name = "test/throws";
  p.run = [](const Graph& g, const PathContext&) -> PathOutcome {
    if (g.num_edges() >= 1) LGG_THROW("injected failure");
    return {};
  };
  EngineOptions opts;
  opts.paths = {p};
  const auto findings = check_graph(graph::path(4), "path 4", opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kException);
  EXPECT_NE(findings[0].detail.find("injected failure"), std::string::npos);
}

TEST(FuzzEngine, ClassifiesEstimatorOutsideTolerance) {
  CountingPath p;
  p.name = "test/bad-estimator";
  p.kind = PathKind::kEstimate;
  p.run = [](const Graph& g, const PathContext&) {
    return PathOutcome{
        static_cast<double>(core::count_triangles_forward(g)) + 100.0, 1.0,
        {}};
  };
  EngineOptions opts;
  opts.paths = {p};
  const auto findings = check_graph(graph::complete(6), "complete 6", opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kMismatch);
  EXPECT_EQ(findings[0].tolerance, 1.0);
}

TEST(FuzzEngine, ClassifiesBrokenInvariant) {
  CountingPath p;
  p.name = "test/invariant";
  p.kind = PathKind::kInvariant;
  p.run = [](const Graph&, const PathContext&) {
    return PathOutcome{1.0, 0.0, "always broken"};
  };
  EngineOptions opts;
  opts.paths = {p};
  const auto findings = check_graph(Graph(3), "empty 3", opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, FindingKind::kInvariant);
  EXPECT_EQ(findings[0].detail, "always broken");
}

// --- the acceptance demo: detect, shrink, emit, replay -------------------

TEST(FuzzEngine, DetectsShrinksAndReproducesInjectedFault) {
  const util::TempPath corpus_dir = util::TempPath::dir("lgg-fuzz-corpus");

  EngineOptions opts;
  opts.master_seed = 2026;
  opts.max_iterations = 300;
  opts.max_findings = 1;
  opts.paths = {broken_degree4_path()};
  opts.policies = {gpusim::ExecPolicy::serial()};
  opts.corpus_dir = corpus_dir.path();

  const auto result = run_campaign(opts);
  ASSERT_EQ(result.findings.size(), 1u) << result.log;
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.kind, FindingKind::kMismatch);

  // The acceptance bound is <= 10 vertices; the true minimum for a
  // degree-4 vertex is the 5-vertex star, and ddmin must reach it.
  EXPECT_LE(f.shrunk.num_vertices(), 10u);
  EXPECT_EQ(f.shrunk.num_vertices(), 5u);
  EXPECT_EQ(f.shrunk.num_edges(), 4u);
  EXPECT_EQ(f.shrunk.max_degree(), 4u);
  EXPECT_TRUE(f.shrunk_minimal);

  // The emitted repro is self-contained: reload it and the fault fires
  // again through the same engine entry point corpus replay uses.
  ASSERT_FALSE(f.repro_path.empty());
  const Repro repro = read_repro_file(f.repro_path);
  EXPECT_EQ(repro.graph.num_vertices(), 5u);
  EXPECT_EQ(repro.oracle, oracle_triangles(repro.graph));
  EXPECT_FALSE(check_graph(repro.graph, repro.spec, opts).empty());
}

// --- determinism ---------------------------------------------------------

TEST(FuzzEngine, FindingsLogBitIdenticalAcrossHostThreadCounts) {
  EngineOptions opts;
  opts.master_seed = 31337;
  opts.max_iterations = 20;
  opts.limits.max_vertices = 48;

  opts.policies = {gpusim::ExecPolicy::serial(),
                   gpusim::ExecPolicy::parallel(1)};
  const auto one = run_campaign(opts);
  opts.policies = {gpusim::ExecPolicy::serial(),
                   gpusim::ExecPolicy::parallel(4)};
  const auto four = run_campaign(opts);

  EXPECT_EQ(one.iterations, four.iterations);
  EXPECT_EQ(one.log, four.log);
  EXPECT_TRUE(one.findings.empty()) << one.log;
}

TEST(FuzzEngine, StreamedEmissionMatchesBufferedLog) {
  // The same campaign run twice: once buffered, once fully streamed.
  // Streamed lines must concatenate to the buffered log byte for byte,
  // and the streamed run must retain nothing in memory.
  EngineOptions opts;
  opts.master_seed = 424242;
  opts.max_iterations = 25;
  opts.max_findings = 1000;  // don't truncate: the broken path fires often
  opts.limits.max_vertices = 16;
  opts.shrink = false;
  opts.policies = {gpusim::ExecPolicy::serial()};
  opts.paths = {broken_degree4_path()};

  const auto buffered = run_campaign(opts);
  ASSERT_GT(buffered.findings_count, 0u);  // the seeded fault must fire
  EXPECT_EQ(buffered.findings_count, buffered.findings.size());

  std::string streamed;
  std::uint64_t streamed_findings = 0;
  opts.buffer_log = false;
  opts.keep_findings = false;
  opts.on_log_line = [&streamed](const std::string& line) {
    streamed += line;
    streamed += '\n';
  };
  opts.on_finding = [&streamed_findings](const Finding& f) {
    EXPECT_GT(f.graph.num_vertices(), 0u);
    ++streamed_findings;
  };
  const auto live = run_campaign(opts);

  EXPECT_EQ(streamed, buffered.log);
  EXPECT_EQ(live.findings_count, buffered.findings_count);
  EXPECT_EQ(streamed_findings, buffered.findings_count);
  EXPECT_TRUE(live.findings.empty());
  EXPECT_TRUE(live.log.empty());
}

TEST(FuzzEngine, FaultCampaignModeAddsResilientPath) {
  // fault_rate > 0 appends the resilient/chunked path to the defaults;
  // it is policy-sensitive, so a broken recovery would surface per policy.
  EngineOptions opts;
  opts.master_seed = 5;
  opts.max_iterations = 10;
  opts.limits.max_vertices = 16;
  opts.shrink = false;
  opts.policies = {gpusim::ExecPolicy::serial()};
  opts.paths = {broken_degree4_path()};  // keep the run small
  opts.fault_rate = 0.1;
  opts.fault_seed = 11;
  const auto result = run_campaign(opts);
  // The resilient path recovered exactly on every iteration: the only
  // findings are the deliberately broken path's.
  for (const auto& f : result.findings)
    EXPECT_EQ(f.path.rfind("test/degree4-broken", 0), 0u) << f.path;
}

}  // namespace
}  // namespace lgg::fuzz
