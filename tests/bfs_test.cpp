#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bfs_oracle.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::graph {
namespace {

TEST(Bfs, PathLevels) {
  const Graph g = path(6);
  const BfsTree t = bfs(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(t.level[v], v);
  EXPECT_EQ(t.depth, 5u);
  EXPECT_EQ(t.parent[0], 0u);
  for (Vertex v = 1; v < 6; ++v) EXPECT_EQ(t.parent[v], v - 1);
}

TEST(Bfs, StarFromCenterAndLeaf) {
  const Graph g = star(8);
  const BfsTree from_center = bfs(g, 0);
  EXPECT_EQ(from_center.depth, 1u);
  const BfsTree from_leaf = bfs(g, 3);
  EXPECT_EQ(from_leaf.depth, 2u);
  EXPECT_EQ(from_leaf.level[0], 1u);
}

TEST(Bfs, UnreachedVerticesMarked) {
  const Graph g = disjoint_union(path(3), path(3));
  const BfsTree t = bfs(g, 0);
  EXPECT_EQ(t.level[4], kUnreached);
  EXPECT_EQ(t.parent[4], kUnreached);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  EXPECT_THROW(bfs(Graph(3), 3), lgg::Error);
}

// Property: every edge connects vertices at most one BFS level apart —
// the structural fact Algorithm 2 depends on.
class BfsEdgeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsEdgeProperty, EdgesSpanAdjacentLevels) {
  const Graph g = erdos_renyi(120, 0.03, GetParam());
  const Components comps = connected_components(g);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const auto members = comps.vertices_of(c);
    const BfsTree t = bfs(g, members.front());
    for (const Vertex u : members)
      for (const Vertex v : g.neighbors(u)) {
        ASSERT_NE(t.level[u], kUnreached);
        ASSERT_NE(t.level[v], kUnreached);
        const auto lu = static_cast<std::int64_t>(t.level[u]);
        const auto lv = static_cast<std::int64_t>(t.level[v]);
        EXPECT_LE(std::abs(lu - lv), 1) << "edge " << u << "-" << v;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsEdgeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ConnectedComponents, CountsAndMembership) {
  const Graph g =
      disjoint_union(disjoint_union(complete(4), cycle(5)), Graph(3));
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.count, 2u + 3u);  // K4, C5, and three isolated vertices
  EXPECT_EQ(comps.vertices_of(0).size(), 4u);
  EXPECT_EQ(comps.vertices_of(1).size(), 5u);
  EXPECT_EQ(comps.vertices_of(2).size(), 1u);
}

TEST(ConnectedComponents, IdsAssignedBySmallestVertex) {
  const Graph g = disjoint_union(Graph(1), complete(3));
  const Components comps = connected_components(g);
  EXPECT_EQ(comps.component_of[0], 0u);
  EXPECT_EQ(comps.component_of[1], 1u);
  EXPECT_EQ(comps.component_of[3], 1u);
}

TEST(LevelDecomposition, BucketsAllVertices) {
  const Graph g = erdos_renyi(100, 0.05, 42);
  const Components comps = connected_components(g);
  const auto members = comps.vertices_of(0);
  const BfsTree t = bfs(g, members.front());
  const LevelDecomposition levels = component_levels(g)[0];
  EXPECT_EQ(levels.num_levels(), t.depth + 1);
  std::size_t total = 0;
  for (const auto& level : levels.levels()) total += level.size();
  EXPECT_EQ(total, members.size());
  for (std::size_t l = 0; l < levels.num_levels(); ++l) {
    EXPECT_FALSE(levels.level(l).empty());
    for (const Vertex v : levels.level(l)) EXPECT_EQ(t.level[v], l);
  }
}

TEST(ConnectedComponents, VerticesOfMatchesMembershipScan) {
  const Graph g = disjoint_union(erdos_renyi(90, 0.02, 3), star(7));
  const Components comps = connected_components(g);
  ASSERT_EQ(comps.offsets.size(), comps.count + 1u);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    std::vector<Vertex> scan;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      if (comps.component_of[v] == c) scan.push_back(v);
    const auto members = comps.vertices_of(c);
    EXPECT_EQ(std::vector<Vertex>(members.begin(), members.end()), scan);
    total += members.size();
  }
  EXPECT_EQ(total, g.num_vertices());
}

/// Every walker level, size list and decomposition must equal graph::bfs
/// bucketed by level from the same root.
void expect_walker_matches_bfs(const Graph& g, std::size_t roots_per_comp) {
  const Components comps = connected_components(g);
  LevelWalker walker(g);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const auto members = comps.vertices_of(c);
    const std::size_t roots = std::min(roots_per_comp, members.size());
    for (std::size_t t = 0; t < roots; ++t) {
      const Vertex root = members[t * members.size() / roots];
      SCOPED_TRACE("root " + std::to_string(root));
      const std::span<const std::size_t> sizes = walker.walk(root, members);
      const BfsTree tree = bfs(g, root);
      const LevelDecomposition want = levels_of(tree);
      ASSERT_EQ(sizes.size(), want.num_levels());
      for (std::size_t l = 0; l < sizes.size(); ++l)
        EXPECT_EQ(sizes[l], want.level(l).size()) << "level " << l;
      EXPECT_EQ(walker.decomposition(members).levels(), want.levels());
      for (Vertex v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(walker.level_of(v), tree.level[v]) << "vertex " << v;
    }
  }
}

TEST(LevelWalker, StarFromCentreGoesBottomUp) {
  // From the centre the frontier's 63 edges exceed the 63 unexplored
  // edges / 14, so the second level is found bottom-up; from a leaf the
  // walk goes top-down first.
  expect_walker_matches_bfs(star(64), 64);
}

TEST(LevelWalker, RmatMatchesBfs) {
  expect_walker_matches_bfs(rmat(12, 16, 5), 8);
}

TEST(LevelWalker, PathGridAndComponentsMatchBfs) {
  expect_walker_matches_bfs(path(200), 5);
  expect_walker_matches_bfs(grid2d(30, 40), 5);
  expect_walker_matches_bfs(
      disjoint_union(erdos_renyi(150, 0.03, 9), complete(6)), 4);
}

TEST(LevelWalker, ComponentLevelsRootAtSmallestVertex) {
  const Graph g = disjoint_union(erdos_renyi(120, 0.03, 4), rmat(8, 8, 2));
  const Components comps = connected_components(g);
  const std::vector<LevelDecomposition> got = component_levels(g);
  ASSERT_EQ(got.size(), comps.count);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const LevelDecomposition want =
        levels_of(bfs(g, comps.vertices_of(c).front()));
    EXPECT_EQ(got[c].levels(), want.levels()) << "component " << c;
  }
}

TEST(LevelWalker, RootOutOfRangeThrows) {
  const Graph g = path(3);
  LevelWalker walker(g);
  EXPECT_THROW(walker.walk(3, {}), lgg::Error);
}

}  // namespace
}  // namespace lgg::graph
