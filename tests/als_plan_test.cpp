#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "combi/binomial.hpp"
#include "core/als_plan.hpp"
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
        manual += als_tests_for_x(s, x);
      EXPECT_EQ(als_total_tests(s, x_max), manual)
          << "s=" << s << " x_max=" << x_max;
    }
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
      for (std::uint32_t x = 0; x < x_max; ++x) expect += als_tests_for_x(s, x);
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
  // n(n-1)(n-2) < 2^64 (n <= 2642246) and through combi::binomial above.
  // Jobs on both sides of the cut-over, whose binary searches cross it,
  // must round-trip at the ends of the space, at every x-block boundary
  // near the cut-over and at random indices.
  for (const std::uint32_t s : {2642245u, 2642246u, 2642247u, 2642250u,
                                3000000u}) {
    AlsJob job;
    job.s = s;
    job.x_max = s - 2;
    job.a = job.x_max;
    job.tests = als_total_tests(job.s, job.x_max);
    ASSERT_NE(job.tests, combi::kBinomialOverflow);
    ASSERT_EQ(job.tests, combi::binomial(s, 3));
    std::vector<std::uint64_t> indices = {0, 1, job.tests - 1};
    // First test of x-blocks whose suffix size s - x straddles the cut.
    for (std::uint32_t x = 0; x < 8 && x < job.x_max; ++x) {
      const TestTriple first{x, x + 1, x + 2};
      indices.push_back(als_test_index(job, first));
    }
    if (s > 2642246u) {
      const std::uint32_t x_cut = s - 2642246u;  // s - x == cut-over n
      for (std::uint32_t x = x_cut - 1; x <= x_cut + 1; ++x) {
        const std::uint64_t at = als_test_index(job, {x, x + 1, x + 2});
        indices.push_back(at);
        if (at > 0) indices.push_back(at - 1);
      }
    }
    Xoshiro256 rng(s);
    for (int trial = 0; trial < 200; ++trial)
      indices.push_back(rng.uniform(job.tests));
    for (const std::uint64_t i : indices) {
      const TestTriple t = als_decode_test(job, i);
      ASSERT_LT(t.x, t.y);
      ASSERT_LT(t.y, t.z);
      ASSERT_LT(t.z, job.s);
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

}  // namespace
}  // namespace lgg::core
