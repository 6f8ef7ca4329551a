#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "util/error.hpp"

namespace lgg::graph {
namespace {

TEST(DegreeStats, KnownGraphs) {
  const DegreeStats star_stats = degree_stats(star(10));
  EXPECT_EQ(star_stats.min, 1u);
  EXPECT_EQ(star_stats.max, 9u);
  EXPECT_DOUBLE_EQ(star_stats.mean, 18.0 / 10.0);
  EXPECT_DOUBLE_EQ(star_stats.median, 1.0);
  EXPECT_EQ(star_stats.histogram[1], 9u);
  EXPECT_EQ(star_stats.histogram[9], 1u);

  const DegreeStats k5 = degree_stats(complete(5));
  EXPECT_EQ(k5.min, 4u);
  EXPECT_EQ(k5.max, 4u);
  EXPECT_DOUBLE_EQ(k5.median, 4.0);
}

TEST(DegreeStats, EmptyGraph) {
  const DegreeStats s = degree_stats(Graph(0));
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Density, KnownValues) {
  EXPECT_DOUBLE_EQ(density(complete(10)), 1.0);
  EXPECT_DOUBLE_EQ(density(Graph(10)), 0.0);
  EXPECT_DOUBLE_EQ(density(Graph(1)), 0.0);
  EXPECT_DOUBLE_EQ(density(path(5)), 4.0 / 10.0);
}

TEST(CoreDecomposition, KnownCores) {
  // Complete graph K_n: everything in the (n-1)-core.
  const CoreDecomposition kd = core_decomposition(complete(6));
  EXPECT_EQ(kd.degeneracy, 5u);
  for (const auto c : kd.core) EXPECT_EQ(c, 5u);

  // Trees are 1-degenerate.
  EXPECT_EQ(core_decomposition(star(20)).degeneracy, 1u);
  EXPECT_EQ(core_decomposition(path(20)).degeneracy, 1u);

  // Cycles are 2-cores.
  const CoreDecomposition cd = core_decomposition(cycle(8));
  EXPECT_EQ(cd.degeneracy, 2u);
  for (const auto c : cd.core) EXPECT_EQ(c, 2u);

  // K4 with a pendant: the pendant has core 1, the clique core 3.
  Graph g = Graph::from_edges(
      5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                           {3, 4}});
  const CoreDecomposition mixed = core_decomposition(g);
  EXPECT_EQ(mixed.core[4], 1u);
  for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(mixed.core[v], 3u);
  EXPECT_EQ(mixed.degeneracy, 3u);
}

TEST(CoreDecomposition, OrderIsDegenerate) {
  // In the removal order, every vertex has at most `degeneracy` neighbours
  // that come later.
  const Graph g = erdos_renyi(120, 0.06, 13);
  const CoreDecomposition d = core_decomposition(g);
  ASSERT_EQ(d.order.size(), g.num_vertices());
  std::vector<std::size_t> position(g.num_vertices());
  for (std::size_t i = 0; i < d.order.size(); ++i) position[d.order[i]] = i;
  for (const Vertex v : d.order) {
    std::size_t later = 0;
    for (const Vertex u : g.neighbors(v))
      if (position[u] > position[v]) ++later;
    EXPECT_LE(later, d.degeneracy);
  }
}

TEST(CoreDecomposition, CoreNumbersAreCorrectBySubgraphCheck) {
  // Every vertex of the k-core has >= k neighbours inside the k-core.
  const Graph g = erdos_renyi(100, 0.08, 7);
  const CoreDecomposition d = core_decomposition(g);
  for (std::uint32_t k = 1; k <= d.degeneracy; ++k) {
    std::vector<bool> in(g.num_vertices(), false);
    for (Vertex v = 0; v < g.num_vertices(); ++v) in[v] = d.core[v] >= k;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (!in[v]) continue;
      std::size_t inside = 0;
      for (const Vertex u : g.neighbors(v))
        if (in[u]) ++inside;
      EXPECT_GE(inside, k) << "vertex " << v << " in claimed " << k
                           << "-core";
    }
  }
}

TEST(KCore, TrianglesLiveInTwoCore) {
  const Graph g = erdos_renyi(80, 0.05, 19);
  const CoreDecomposition d = core_decomposition(g);
  std::vector<bool> in(g.num_vertices(), false);
  for (Vertex v = 0; v < g.num_vertices(); ++v) in[v] = d.core[v] >= 2;
  // Any edge with both endpoints of degree >= 2 inside triangles...
  // direct check: every triangle's vertices are in the 2-core.
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (const Vertex v : g.neighbors(u))
      for (const Vertex w : g.neighbors(v))
        if (u < v && v < w && g.has_edge(u, w)) {
          EXPECT_TRUE(in[u] && in[v] && in[w]);
        }
}

TEST(Diameter, DoubleSweepKnownGraphs) {
  EXPECT_EQ(diameter_double_sweep(path(10)), 9u);   // exact on trees
  EXPECT_EQ(diameter_double_sweep(star(10)), 2u);
  EXPECT_EQ(diameter_double_sweep(complete(6)), 1u);
  EXPECT_GE(diameter_double_sweep(cycle(10)), 5u);  // lower bound
  EXPECT_EQ(diameter_double_sweep(Graph(0)), 0u);
  EXPECT_THROW(diameter_double_sweep(Graph(2), 5), lgg::Error);
}

TEST(Assortativity, KnownSigns) {
  // Star: max-degree centre always pairs with degree-1 leaves —
  // perfectly disassortative.
  EXPECT_LT(degree_assortativity(star(20)), -0.9);
  // Regular graphs have zero degree variance.
  EXPECT_DOUBLE_EQ(degree_assortativity(cycle(12)), 0.0);
  EXPECT_DOUBLE_EQ(degree_assortativity(complete(6)), 0.0);
  // BA graphs are known to be slightly disassortative-to-neutral.
  const double ba = degree_assortativity(barabasi_albert(500, 3, 3));
  EXPECT_LT(ba, 0.2);
  EXPECT_GT(ba, -0.8);
}

}  // namespace
}  // namespace lgg::graph
