#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "combi/binomial.hpp"
#include "core/als_plan.hpp"
#include "core/hybrid.hpp"
#include "fuzz/spec.hpp"
#include "graph/bfs.hpp"
#include "graph/chunking.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::core {
namespace {

using combi::binomial;
using graph::Graph;

TEST(AlsCounts, ClosedFormsAgree) {
  for (std::uint32_t s = 3; s <= 40; ++s)
    for (std::uint32_t x_max = 1; x_max + 2 <= s; ++x_max) {
      std::uint64_t manual = 0;
      for (std::uint32_t x = 0; x < x_max; ++x)
        manual += binomial(s - 1 - x, 2);
      EXPECT_EQ(als_total_tests(s, x_max), manual)
          << "s=" << s << " x_max=" << x_max;
    }
}

TEST(AlsCounts, DifferencesPastChoose3Overflow) {
  // C(5000000, 3) ~ 2.08e19 is past 2^64, but a job with a small x_max
  // still has a count that fits: the closed form's difference is taken in
  // 128 bits, not as a difference of two saturated binomials.
  ASSERT_EQ(binomial(5000000, 3), combi::kBinomialOverflow);
  EXPECT_EQ(als_total_tests(5000000, 1), 12499992500001u);  // C(4999999, 2)
  EXPECT_EQ(als_total_tests(5000001, 1), 12499997500000u);  // C(5000000, 2)
  std::uint64_t manual = 0;
  for (std::uint32_t x = 0; x < 1000; ++x) manual += binomial(4999999 - x, 2);
  EXPECT_EQ(als_total_tests(5000000, 1000), manual);
  // Only a count that does not itself fit is the sentinel.
  EXPECT_EQ(als_total_tests(5000000, 4999998), combi::kBinomialOverflow);
  EXPECT_EQ(als_total_tests(2642246, 2642244), binomial(2642246, 3));
}

TEST(AlsPlan, CompleteGraphSingleAls) {
  // K_n from any root: levels {root}, {rest} -> one ALS, last, covering
  // all C(n,3) tests.
  const Graph g = graph::complete(10);
  const AlsPlan plan = build_als_plan(g);
  ASSERT_EQ(plan.jobs.size(), 1u);
  EXPECT_EQ(plan.jobs[0].s, 10u);
  EXPECT_EQ(plan.jobs[0].a, 1u);
  EXPECT_EQ(plan.jobs[0].x_max, 8u);  // s - 2: last ALS widens the bound
  EXPECT_EQ(plan.total_tests, binomial(10, 3));
}

TEST(AlsPlan, PathPlanShape) {
  // Path 0-1-2-3-4: levels are singletons; ALS r = {r, r+1} has s=2 ->
  // zero tests each, but jobs still exist.
  const Graph g = graph::path(5);
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.jobs.size(), 4u);
  EXPECT_EQ(plan.total_tests, 0u);
}

TEST(AlsPlan, IsolatedVerticesAreEmptyJobs) {
  const Graph g(3);
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.num_components, 3u);
  EXPECT_EQ(plan.total_tests, 0u);
  for (const AlsJob& job : plan.jobs) EXPECT_EQ(job.tests, 0u);
}

TEST(AlsPlan, OffsetsArePrefixSums) {
  const Graph g = graph::erdos_renyi(80, 0.06, 3);
  const AlsPlan plan = build_als_plan(g);
  std::uint64_t expect = 0;
  for (const AlsJob& job : plan.jobs) {
    EXPECT_EQ(job.test_offset, expect);
    expect += job.tests;
  }
  EXPECT_EQ(plan.total_tests, expect);
}

TEST(AlsPlan, LocalVerticesAreFirstThenSecondLevel) {
  const Graph g = graph::star(6);  // root BFS: {0}, {1..5}
  const AlsPlan plan = build_als_plan(g);
  ASSERT_EQ(plan.jobs.size(), 1u);
  const AlsJob& job = plan.jobs[0];
  EXPECT_EQ(job.a, 1u);
  EXPECT_EQ(job.local_to_global[0], 0u);
  EXPECT_EQ(job.local_to_global.size(), 6u);
}

TEST(AlsDecode, RoundTripExhaustiveSmall) {
  AlsJob job;
  job.s = 9;
  job.a = 4;
  job.x_max = 4;
  job.tests = als_total_tests(job.s, job.x_max);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t i = 0; i < job.tests; ++i) {
    const TestTriple t = als_decode_test(job, i);
    EXPECT_LT(t.x, t.y);
    EXPECT_LT(t.y, t.z);
    EXPECT_LT(t.z, job.s);
    EXPECT_LT(t.x, job.x_max);
    EXPECT_EQ(als_test_index(job, t), i);
    seen.insert({t.x, t.y, t.z});
  }
  EXPECT_EQ(seen.size(), job.tests);
}

TEST(AlsDecode, RoundTripLargeRandom) {
  AlsJob job;
  job.s = 50000;
  job.a = 20000;
  job.x_max = 20000;
  job.tests = als_total_tests(job.s, job.x_max);
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t i = rng.uniform(job.tests);
    const TestTriple t = als_decode_test(job, i);
    EXPECT_EQ(als_test_index(job, t), i);
  }
}

TEST(AlsDecode, RoundTripTinyJobs) {
  // s = 3 and s = 4, for both the last-ALS bound (s - 2) and a = 1.
  for (const std::uint32_t s : {3u, 4u}) {
    for (const std::uint32_t x_max : {1u, s - 2}) {
      AlsJob job;
      job.s = s;
      job.a = x_max;
      job.x_max = x_max;
      job.tests = als_total_tests(s, x_max);
      std::uint64_t expect = 0;
      for (std::uint32_t x = 0; x < x_max; ++x) expect += binomial(s - 1 - x, 2);
      ASSERT_EQ(job.tests, expect);
      TestTriple prev{};
      for (std::uint64_t i = 0; i < job.tests; ++i) {
        const TestTriple t = als_decode_test(job, i);
        EXPECT_EQ(als_test_index(job, t), i);
        if (i > 0) {
          EXPECT_TRUE(std::tie(prev.x, prev.y, prev.z) <
                      std::tie(t.x, t.y, t.z));
        }
        prev = t;
      }
    }
  }
}

TEST(AlsDecode, RoundTripAcrossExactArithmeticCutover) {
  // The decode evaluates C(n, 3) in plain 64-bit arithmetic while
  // n(n-1)(n-2) < 2^64 (n <= 2642246) and in 128 bits above.  Jobs on
  // both sides of the cut-over, whose binary searches cross it, must
  // round-trip at the ends of the space, at every x-block boundary near
  // the cut-over and at random indices.  s = 5000000 is past the point
  // where C(s, 3) itself overflows 64 bits; its small-x_max job does not.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> bounds = {
      {2642245u, 2642243u}, {2642246u, 2642244u}, {2642247u, 2642245u},
      {2642250u, 2642248u}, {3000000u, 2999998u}, {5000000u, 1000u},
      {5000000u, 1u}};
  for (const auto& [s, x_max] : bounds) {
    AlsJob job;
    job.s = s;
    job.x_max = x_max;
    job.a = job.x_max;
    job.tests = als_total_tests(job.s, job.x_max);
    ASSERT_NE(job.tests, combi::kBinomialOverflow);
    if (x_max == s - 2) {
      ASSERT_EQ(job.tests, combi::binomial(s, 3));
    } else {
      std::uint64_t expect = 0;
      for (std::uint32_t x = 0; x < x_max; ++x)
        expect += binomial(s - 1 - x, 2);
      ASSERT_EQ(job.tests, expect);
    }
    const TestTriple first = als_decode_test(job, 0);
    EXPECT_EQ(std::tie(first.x, first.y, first.z),
              std::make_tuple(0u, 1u, 2u)) << "s=" << s;
    const TestTriple last = als_decode_test(job, job.tests - 1);
    EXPECT_EQ(std::tie(last.x, last.y, last.z),
              std::make_tuple(x_max - 1, s - 2, s - 1)) << "s=" << s;
    std::vector<std::uint64_t> indices = {0, 1, job.tests - 1};
    // First test of x-blocks whose suffix size s - x straddles the cut.
    for (std::uint32_t x = 0; x < 8 && x < job.x_max; ++x) {
      const TestTriple block{x, x + 1, x + 2};
      indices.push_back(als_test_index(job, block));
    }
    if (s > 2642246u && s - 2642246u + 1 < job.x_max) {
      const std::uint32_t x_cut = s - 2642246u;  // s - x == cut-over n
      for (std::uint32_t x = x_cut - 1; x <= x_cut + 1; ++x) {
        const std::uint64_t at = als_test_index(job, {x, x + 1, x + 2});
        indices.push_back(at);
        if (at > 0) indices.push_back(at - 1);
      }
    }
    Xoshiro256 rng(s + x_max);
    for (int trial = 0; trial < 200; ++trial)
      indices.push_back(rng.uniform(job.tests));
    for (const std::uint64_t i : indices) {
      const TestTriple t = als_decode_test(job, i);
      ASSERT_LT(t.x, t.y);
      ASSERT_LT(t.y, t.z);
      ASSERT_LT(t.z, job.s);
      ASSERT_LT(t.x, job.x_max);
      ASSERT_EQ(als_test_index(job, t), i) << "s=" << s << " index " << i;
    }
  }
}

TEST(AlsDecode, OutOfRangeThrows) {
  AlsJob job;
  job.s = 5;
  job.a = 2;
  job.x_max = 2;
  job.tests = als_total_tests(5, 2);
  EXPECT_THROW(als_decode_test(job, job.tests), lgg::Error);
}

TEST(AlsAdvance, MatchesDecodeSequence) {
  AlsJob job;
  job.s = 12;
  job.a = 5;
  job.x_max = 5;
  job.tests = als_total_tests(job.s, job.x_max);
  TestTriple t = als_decode_test(job, 0);
  for (std::uint64_t i = 1; i < job.tests; ++i) {
    ASSERT_TRUE(als_advance_test(job, t)) << "i=" << i;
    const TestTriple want = als_decode_test(job, i);
    EXPECT_EQ(t.x, want.x);
    EXPECT_EQ(t.y, want.y);
    EXPECT_EQ(t.z, want.z);
  }
  EXPECT_FALSE(als_advance_test(job, t));
}

TEST(AlsPlan, DisconnectedComponentsAllPlanned) {
  const Graph g =
      graph::disjoint_union(graph::complete(5), graph::complete(4));
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.num_components, 2u);
  EXPECT_EQ(plan.total_tests, binomial(5, 3) + binomial(4, 3));
}

TEST(AlsPlan, BfsEdgeAccounting) {
  const Graph g = graph::cycle(10);
  const AlsPlan plan = build_als_plan(g);
  EXPECT_EQ(plan.bfs_edges_visited, 2 * g.num_edges());
}

TEST(AdjacentLevelSets, PairsWithSharedBoundary) {
  // Levels {0}, {1, 2}, {3}, {4, 5, 6}: ALS i is levels i and i + 1, and
  // consecutive ALSs share level i + 1.
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {3, 6}});
  const AlsPlan plan = build_als_plan(g);
  ASSERT_EQ(plan.jobs.size(), 3u);
  const std::vector<std::uint32_t> a = {1, 2, 1}, s = {3, 3, 4};
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const AlsJob& job = plan.jobs[i];
    EXPECT_EQ(job.first_level, i);
    EXPECT_EQ(job.a, a[i]);
    EXPECT_EQ(job.s, s[i]);
    EXPECT_EQ(job.local_to_global.size(), job.s);
    const bool last = i + 1 == plan.jobs.size();
    EXPECT_EQ(job.x_max, last ? job.s - 2 : std::min(job.a, job.s - 2));
    if (i > 0) {  // overlap: this ALS's A is the previous ALS's B
      const AlsJob& prev = plan.jobs[i - 1];
      EXPECT_EQ(std::vector<graph::Vertex>(job.local_to_global.begin(),
                                           job.local_to_global.begin() + job.a),
                std::vector<graph::Vertex>(
                    prev.local_to_global.begin() + prev.a,
                    prev.local_to_global.end()));
    }
  }
  EXPECT_GT(plan.jobs.back().x_max, plan.jobs.back().a);  // widened
}

TEST(AdjacentLevelSets, SingleLevelComponent) {
  const Graph g(4);  // one isolated vertex per component
  const AlsPlan plan = build_als_plan(g);
  ASSERT_EQ(plan.jobs.size(), 4u);
  const AlsJob& job = plan.jobs[2];
  EXPECT_EQ(job.component, 2u);
  EXPECT_EQ(job.first_level, 0u);
  EXPECT_EQ(job.a, 1u);
  EXPECT_EQ(job.s, 1u);
  EXPECT_EQ(job.local_to_global, std::vector<graph::Vertex>{2});
  EXPECT_EQ(job.tests, 0u);

  // A single level large enough to hold tests is the component's last
  // ALS: one job whose bound is widened to s - 2.
  const graph::LevelDecomposition one_level({{0, 1, 2, 3, 4}});
  std::vector<AlsJob> jobs;
  EXPECT_EQ(append_als_jobs(one_level, 0, 0, 0, 0, jobs), binomial(5, 3));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].s, 5u);
  EXPECT_EQ(jobs[0].x_max, jobs[0].s - 2);
}

TEST(AdjacentLevelSets, CoversEveryVertex) {
  const Graph g = graph::erdos_renyi(90, 0.04, 5);
  const graph::Components comps = graph::connected_components(g);
  const AlsPlan plan = build_als_plan(g);
  ASSERT_EQ(plan.num_components, comps.count);
  std::vector<bool> seen(g.num_vertices(), false);
  for (const AlsJob& job : plan.jobs)
    for (const graph::Vertex v : job.local_to_global) {
      EXPECT_EQ(comps.component_of[v], job.component);
      seen[v] = true;
    }
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_TRUE(seen[v]);
}

/// Two seeded specs of every fuzz family, plus graphs whose plans hold
/// zero-test jobs between non-empty ones and a multi-chunk layered graph.
std::vector<std::pair<std::string, Graph>> walker_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  std::vector<std::size_t> seen(fuzz::spec_families().size(), 0);
  Xoshiro256 rng(24);
  while (std::any_of(seen.begin(), seen.end(),
                     [](std::size_t k) { return k < 2; })) {
    const fuzz::GraphSpec spec = fuzz::sample_spec(rng);
    const auto family = static_cast<std::size_t>(
        std::find(fuzz::spec_families().begin(),
                  fuzz::spec_families().end(), spec.family) -
        fuzz::spec_families().begin());
    if (seen.at(family)++ < 2) graphs.emplace_back(spec.to_string(), spec.build());
  }
  graphs.emplace_back(
      "path+K5+isolated+K4",
      graph::disjoint_union(
          graph::disjoint_union(graph::path(5), graph::complete(5)),
          graph::disjoint_union(Graph(2), graph::complete(4))));
  graphs.emplace_back("layered 600",
                      graph::layered_random(600, 30, 0.2, 0.1, 3));
  return graphs;
}

TEST(AlsPlan, EqualsWholeComponentChunkWork) {
  // The plan and the chunk work come from one builder: a chunk spanning
  // a whole component yields that component's plan jobs.
  for (const auto& [name, g] : walker_graphs()) {
    const AlsPlan plan = build_als_plan(g);
    const std::vector<graph::LevelDecomposition> levels =
        graph::component_levels(g);
    std::vector<AlsJob> jobs;
    for (std::uint32_t c = 0; c < levels.size(); ++c) {
      graph::Chunk chunk;
      chunk.component = c;
      chunk.first_level = 0;
      chunk.last_level = static_cast<std::uint32_t>(levels[c].num_levels() - 1);
      ChunkWork work = build_chunk_work(chunk, levels[c]);
      for (AlsJob& job : work.jobs) jobs.push_back(std::move(job));
    }
    ASSERT_EQ(jobs.size(), plan.jobs.size()) << name;
    for (std::size_t r = 0; r < jobs.size(); ++r) {
      const AlsJob& want = plan.jobs[r];
      const AlsJob& got = jobs[r];
      EXPECT_EQ(got.component, want.component) << name << " job " << r;
      EXPECT_EQ(got.first_level, want.first_level) << name << " job " << r;
      EXPECT_EQ(got.local_to_global, want.local_to_global)
          << name << " job " << r;
      EXPECT_EQ(got.a, want.a) << name << " job " << r;
      EXPECT_EQ(got.s, want.s) << name << " job " << r;
      EXPECT_EQ(got.x_max, want.x_max) << name << " job " << r;
      EXPECT_EQ(got.tests, want.tests) << name << " job " << r;
    }
  }
}

TEST(ChunkWork, CountsPastChoose3OverflowAndRefusesOverflow) {
  // Levels {1 vertex}, {5,000,000}, {4}: ALS0 has s = 5,000,001 and
  // x_max = 1, so C(5000000, 2) tests although C(s, 3) is past 2^64;
  // the last ALS widens to x_max = s - 2 and its count overflows.
  std::vector<std::vector<graph::Vertex>> raw(3);
  raw[0] = {0};
  raw[1].resize(5000000);
  std::iota(raw[1].begin(), raw[1].end(), graph::Vertex{1});
  raw[2] = {5000001, 5000002, 5000003, 5000004};
  const graph::LevelDecomposition levels(std::move(raw));

  graph::Chunk head;
  head.first_level = 0;
  head.last_level = 1;
  const ChunkWork work = build_chunk_work(head, levels);
  ASSERT_EQ(work.jobs.size(), 1u);
  EXPECT_EQ(work.jobs[0].x_max, 1u);
  EXPECT_EQ(work.jobs[0].tests, 12499997500000u);
  EXPECT_EQ(work.tests, 12499997500000u);

  for (const std::uint32_t first : {0u, 1u}) {
    graph::Chunk tail;
    tail.first_level = first;
    tail.last_level = 2;
    try {
      (void)build_chunk_work(tail, levels);
      ADD_FAILURE() << "chunk [" << first << ", 2] did not throw";
    } catch (const lgg::Error& e) {
      EXPECT_NE(std::string(e.what()).find("ALS test count overflows 64 bits"),
                std::string::npos)
          << e.what();
    }
  }
}

/// Every flat index of `jobs`' test space, decoded by the oracle: the
/// covering job (by a linear scan) and als_decode_test of the local index.
struct Decoded {
  std::size_t job = 0;
  TestTriple t;
};
std::vector<Decoded> decode_all(const std::vector<AlsJob>& jobs) {
  std::vector<Decoded> out;
  for (std::size_t r = 0; r < jobs.size(); ++r) {
    EXPECT_EQ(jobs[r].test_offset, out.size());
    for (std::uint64_t i = 0; i < jobs[r].tests; ++i)
      out.push_back({r, als_decode_test(jobs[r], i)});
  }
  return out;
}

/// Check the three ways a kernel walks the space against the oracle: a
/// fresh cursor per index, lane-strided cursors and next() from 0.
void check_cursor(const std::vector<AlsJob>& jobs, const std::string& name) {
  const std::vector<Decoded> want = decode_all(jobs);
  const auto same = [&](const TestCursor& c, std::uint64_t flat,
                        const char* walk) {
    const Decoded& d = want[flat];
    const TestTriple& t = c.triple();
    ASSERT_EQ(c.job_index(), d.job) << name << " " << walk << " flat " << flat;
    ASSERT_EQ(&c.job(), &jobs[d.job]) << name << " " << walk << " flat " << flat;
    ASSERT_EQ(std::tie(t.x, t.y, t.z), std::tie(d.t.x, d.t.y, d.t.z))
        << name << " " << walk << " flat " << flat;
  };
  for (std::uint64_t flat = 0; flat < want.size(); ++flat) {
    TestCursor fresh(jobs);
    fresh.seek(flat);
    same(fresh, flat, "seek");
  }
  for (const std::uint64_t stride : {32u, 128u})
    for (std::uint64_t lane = 0; lane < stride; ++lane) {
      TestCursor strided(jobs);
      for (std::uint64_t flat = lane; flat < want.size(); flat += stride) {
        strided.seek(flat);
        same(strided, flat, stride == 32 ? "stride 32" : "stride 128");
      }
    }
  if (want.empty()) return;
  TestCursor walk(jobs);
  walk.seek(0);
  for (std::uint64_t flat = 0; flat < want.size(); ++flat) {
    if (flat > 0) {
      ASSERT_TRUE(walk.next()) << name << " next() at " << flat;
    }
    same(walk, flat, "next");
  }
  EXPECT_FALSE(walk.next()) << name << " next() past the end";
}

TEST(TestCursor, AgreesWithDecodeOnPlansAndChunkWorks) {
  for (const auto& [name, g] : walker_graphs()) {
    check_cursor(build_als_plan(g).jobs, name + " plan");
    const AlsPrecomputed pre = precompute_als(g);
    for (std::size_t ci = 0; ci < pre.works.size(); ++ci)
      check_cursor(pre.works[ci].jobs,
                   name + " chunk " + std::to_string(ci));
  }
}

}  // namespace
}  // namespace lgg::core
