// The paper's central dedup claim, verified by brute force: Algorithm 2's
// adjacent-level-set test spaces enumerate every candidate vertex triple
// that could be a triangle EXACTLY once across the whole plan — no triple
// missed, no triple double-tested.  (Triples spanning more than two BFS
// levels cannot be triangles and are correctly absent.)
#include <gtest/gtest.h>

#include <map>

#include "core/als_plan.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"

namespace lgg::core {
namespace {

using graph::Graph;
using graph::Vertex;

/// Walk the plan's test space with the shipped cursor and histogram the
/// global triples.
std::map<std::array<Vertex, 3>, int> enumerate_plan(const AlsPlan& plan) {
  std::map<std::array<Vertex, 3>, int> seen;
  if (plan.total_tests == 0) return seen;
  TestCursor cursor(plan.jobs);
  cursor.seek(0);
  do {
    const AlsJob& job = cursor.job();
    const TestTriple& t = cursor.triple();
    std::array<Vertex, 3> key{job.local_to_global[t.x],
                              job.local_to_global[t.y],
                              job.local_to_global[t.z]};
    std::sort(key.begin(), key.end());
    ++seen[key];
  } while (cursor.next());
  return seen;
}

class DedupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DedupProperty, EveryEligibleTripleTestedExactlyOnce) {
  const Graph g = graph::erdos_renyi(40, 0.15, GetParam());
  const AlsPlan plan = build_als_plan(g);
  const auto seen = enumerate_plan(plan);

  // (1) No triple is ever tested twice.
  for (const auto& [triple, count] : seen)
    EXPECT_EQ(count, 1) << triple[0] << "," << triple[1] << "," << triple[2];

  // (2) Exactly the triples within <= 2 adjacent BFS levels of one
  // component are tested.
  const graph::Components comps = graph::connected_components(g);
  std::vector<std::uint32_t> level(g.num_vertices());
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const auto members = comps.vertices_of(c);
    const graph::BfsTree tree = graph::bfs(g, members.front());
    for (const Vertex v : members) level[v] = tree.level[v];
  }
  std::uint64_t eligible = 0;
  for (Vertex a = 0; a < g.num_vertices(); ++a)
    for (Vertex b = a + 1; b < g.num_vertices(); ++b)
      for (Vertex c = b + 1; c < g.num_vertices(); ++c) {
        if (comps.component_of[a] != comps.component_of[b] ||
            comps.component_of[b] != comps.component_of[c])
          continue;
        const auto lo = std::min({level[a], level[b], level[c]});
        const auto hi = std::max({level[a], level[b], level[c]});
        if (hi - lo <= 1) {
          ++eligible;
          EXPECT_TRUE(seen.count({a, b, c}))
              << "missed triple " << a << "," << b << "," << c;
        } else {
          EXPECT_FALSE(seen.count({a, b, c}))
              << "tested a non-adjacent-level triple " << a << "," << b
              << "," << c;
        }
      }
  EXPECT_EQ(seen.size(), eligible);
  EXPECT_EQ(plan.total_tests, eligible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DedupProperty, MultiComponentGraph) {
  const Graph g = graph::disjoint_union(
      graph::erdos_renyi(20, 0.25, 9),
      graph::disjoint_union(graph::complete(6), graph::star(7)));
  const AlsPlan plan = build_als_plan(g);
  for (const auto& [triple, count] : enumerate_plan(plan))
    EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace lgg::core
