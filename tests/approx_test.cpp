#include <gtest/gtest.h>

#include <cmath>

#include "core/approx.hpp"
#include "core/triangle_cpu.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace lgg::core {
namespace {

using graph::Graph;

TEST(Doulion, PEqualsOneIsExact) {
  const Graph g = graph::erdos_renyi(120, 0.1, 3);
  const DoulionResult r = doulion_estimate(g, 1.0, 7);
  EXPECT_EQ(r.kept_edges, g.num_edges());
  EXPECT_DOUBLE_EQ(r.estimate,
                   static_cast<double>(count_triangles_forward(g)));
}

TEST(Doulion, ParameterValidation) {
  EXPECT_THROW(doulion_estimate(Graph(3), 0.0, 1), lgg::Error);
  EXPECT_THROW(doulion_estimate(Graph(3), 1.5, 1), lgg::Error);
}

TEST(Doulion, UnbiasedOverSeeds) {
  // Average over many runs converges to the true count (KDD'09 Thm. 1).
  const Graph g = graph::barabasi_albert(400, 5, 11);
  const auto truth = static_cast<double>(count_triangles_forward(g));
  ASSERT_GT(truth, 100.0);
  const double p = 0.5;
  double sum = 0.0;
  const int runs = 60;
  for (int s = 0; s < runs; ++s) sum += doulion_estimate(g, p, 100 + s).estimate;
  const double mean = sum / runs;
  EXPECT_NEAR(mean, truth, 0.25 * truth);
}

TEST(Doulion, KeepsRoughlyPFractionOfEdges) {
  const Graph g = graph::erdos_renyi(300, 0.1, 5);
  const DoulionResult r = doulion_estimate(g, 0.3, 9);
  const double expect = 0.3 * static_cast<double>(g.num_edges());
  EXPECT_NEAR(static_cast<double>(r.kept_edges), expect,
              5 * std::sqrt(expect));
}

TEST(WedgeSampling, ExactGraphsExtremes) {
  // Complete graph: every wedge closed -> exact count.
  const Graph k = graph::complete(20);
  const WedgeSampleResult r = wedge_sampling_estimate(k, 3000, 1);
  EXPECT_DOUBLE_EQ(r.closed_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.estimate,
                   static_cast<double>(count_triangles_forward(k)));
  // Triangle-free graph: no closed wedges.
  const WedgeSampleResult z =
      wedge_sampling_estimate(graph::complete_bipartite(6, 6), 2000, 2);
  EXPECT_DOUBLE_EQ(z.estimate, 0.0);
}

TEST(WedgeSampling, EmptyGraphSafe) {
  const WedgeSampleResult r = wedge_sampling_estimate(Graph(5), 100, 1);
  EXPECT_EQ(r.total_wedges, 0u);
  EXPECT_DOUBLE_EQ(r.estimate, 0.0);
  EXPECT_THROW(wedge_sampling_estimate(Graph(5), 0, 1), lgg::Error);
}

TEST(WedgeSampling, ConvergesOnRandomGraph) {
  const Graph g = graph::erdos_renyi(300, 0.08, 21);
  const auto truth = static_cast<double>(count_triangles_forward(g));
  ASSERT_GT(truth, 50.0);
  const WedgeSampleResult r = wedge_sampling_estimate(g, 200000, 3);
  EXPECT_NEAR(r.estimate, truth, 0.15 * truth);
}

TEST(WedgeSampling, WedgeCountMatchesDegreeFormula) {
  const Graph g = graph::star(10);  // C(9,2) = 36 wedges at the centre
  const WedgeSampleResult r = wedge_sampling_estimate(g, 10, 1);
  EXPECT_EQ(r.total_wedges, 36u);
}

}  // namespace
}  // namespace lgg::core
