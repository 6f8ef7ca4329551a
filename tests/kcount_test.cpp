#include <gtest/gtest.h>

#include "combi/binomial.hpp"
#include "core/kcount.hpp"
#include "core/triangle_cpu.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace lgg::core {
namespace {

using combi::binomial;
using graph::Graph;

// ---- k-cliques ----

TEST(KCliques, KnownValues) {
  // K_n has C(n, k) k-cliques.
  for (std::uint32_t k = 1; k <= 6; ++k)
    EXPECT_EQ(count_kcliques(graph::complete(6), k), binomial(6, k)) << k;
  // k=2 counts edges.
  const Graph g = graph::erdos_renyi(40, 0.2, 3);
  EXPECT_EQ(count_kcliques(g, 2), g.num_edges());
  // k=3 counts triangles.
  EXPECT_EQ(count_kcliques(g, 3), count_triangles_edge_iterator(g));
  // Triangle-free graphs have no 3-cliques.
  EXPECT_EQ(count_kcliques(graph::complete_bipartite(5, 5), 3), 0u);
  EXPECT_EQ(count_kcliques(graph::cycle(8), 3), 0u);
}

TEST(KCliques, ZeroKThrows) {
  EXPECT_THROW(count_kcliques(Graph(3), 0), lgg::Error);
  EXPECT_THROW(count_kcliques_als(Graph(2), 0), lgg::Error);
}

class KCliqueAlsAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KCliqueAlsAgreement, PaperStyleMatchesOracle) {
  const std::uint32_t k = GetParam();
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const Graph g = graph::erdos_renyi(26, 0.35, seed);
    EXPECT_EQ(count_kcliques_als(g, k), count_kcliques(g, k))
        << "k=" << k << " seed=" << seed;
  }
  const Graph multi =
      graph::disjoint_union(graph::complete(6), graph::erdos_renyi(15, 0.4, 9));
  EXPECT_EQ(count_kcliques_als(multi, k), count_kcliques(multi, k));
}

INSTANTIATE_TEST_SUITE_P(K, KCliqueAlsAgreement, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace lgg::core
