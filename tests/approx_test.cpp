#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/approx.hpp"
#include "core/triangle_cpu.hpp"
#include "fuzz/spec.hpp"
#include "graph/generators.hpp"
#include "serve/catalog.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::core {
namespace {

using graph::Graph;
using graph::Vertex;

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

/// Seeded graphs of every fuzz spec family, plus edge cases: isolated
/// and zero-wedge vertices around the hubs, a star (one centre owns every
/// target), and graphs without a single wedge.
std::vector<std::pair<std::string, Graph>> estimator_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  std::vector<std::size_t> seen(fuzz::spec_families().size(), 0);
  Xoshiro256 rng(21);
  fuzz::SamplerLimits limits;
  limits.max_vertices = 160;
  while (std::any_of(seen.begin(), seen.end(),
                     [](std::size_t k) { return k < 3; })) {
    const fuzz::GraphSpec spec = fuzz::sample_spec(rng, limits);
    const auto family = static_cast<std::size_t>(
        std::find(fuzz::spec_families().begin(),
                  fuzz::spec_families().end(), spec.family) -
        fuzz::spec_families().begin());
    if (seen.at(family)++ < 3) graphs.emplace_back(spec.to_string(), spec.build());
  }
  graphs.emplace_back("star+isolated",
                      graph::disjoint_union(Graph(7), graph::star(40)));
  graphs.emplace_back("paths+isolated",
                      graph::disjoint_union(graph::path(9), Graph(30)));
  graphs.emplace_back("layered 1000",
                      graph::layered_random(1000, 20, 0.2, 0.1, 3));
  graphs.emplace_back("matching", Graph::from_edges(6, {{0, 1}, {2, 3}}));
  graphs.emplace_back("empty", Graph(5));
  graphs.emplace_back("no vertices", Graph(0));
  return graphs;
}

/// The earlier lookup: upper_bound over the full cumulative wedge table.
Vertex upper_bound_centre(const std::vector<std::uint64_t>& cumulative,
                          std::uint64_t t) {
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), t);
  return static_cast<Vertex>(it - cumulative.begin() - 1);
}

TEST(WedgeCentreIndex, GuideLookupMatchesUpperBoundOnEveryFamily) {
  for (const auto& [name, g] : estimator_graphs()) {
    std::vector<std::uint64_t> cumulative(g.num_vertices() + 1, 0);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::uint64_t d = g.degree(v);
      cumulative[v + 1] = cumulative[v] + d * (d - 1) / 2;
    }
    const WedgeCentreIndex index(g);
    ASSERT_EQ(index.total(), cumulative.back()) << name;
    const std::uint64_t total = index.total();
    if (total == 0) continue;
    // Every target class: each centre's first and last target (and the
    // targets either side of them), the last bucket's end, then every
    // target when the table is small and random ones when it is not.
    std::vector<std::uint64_t> targets = {0, total - 1};
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (cumulative[v + 1] == cumulative[v]) continue;
      for (const std::uint64_t t :
           {cumulative[v], cumulative[v] + 1, cumulative[v + 1] - 1,
            cumulative[v + 1]})
        if (t < total) targets.push_back(t);
    }
    if (total <= 200000) {
      for (std::uint64_t t = 0; t < total; ++t) targets.push_back(t);
    } else {
      Xoshiro256 rng(total);
      for (int k = 0; k < 100000; ++k) targets.push_back(rng.uniform(total));
    }
    for (const std::uint64_t t : targets)
      ASSERT_EQ(index.centre(t), upper_bound_centre(cumulative, t))
          << name << " target " << t << " of " << total;
  }
}

TEST(WedgeSampling, ZeroWedgeGraphsDrawNothing) {
  for (const Graph& g :
       {Graph(0), Graph(5), Graph::from_edges(6, {{0, 1}, {2, 3}})}) {
    const WedgeSampleResult r = wedge_sampling_estimate(g, 100, 1);
    EXPECT_EQ(r.total_wedges, 0u);
    EXPECT_DOUBLE_EQ(r.closed_fraction, 0.0);
    EXPECT_DOUBLE_EQ(r.estimate, 0.0);
  }
}

TEST(Doulion, OrientedCountMatchesForwardCountOfTheKeptEdges) {
  for (const auto& [name, g] : estimator_graphs()) {
    for (const double p : {0.05, 0.1, 0.5, 1.0}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        // The earlier pipeline: the same draws over g.edges(), then a
        // rebuilt graph and the forward counter.
        Xoshiro256 rng(seed);
        std::vector<graph::Edge> kept;
        for (const graph::Edge& e : g.edges())
          if (rng.bernoulli(p)) kept.push_back(e);
        const std::uint64_t want =
            count_triangles_forward(Graph::from_edges(g.num_vertices(), kept));
        const DoulionResult r = doulion_estimate(g, p, seed);
        ASSERT_EQ(r.kept_edges, kept.size()) << name << " p=" << p;
        ASSERT_EQ(r.sparsified_count, want) << name << " p=" << p;
        EXPECT_EQ(r.estimate, static_cast<double>(want) / (p * p * p));
      }
    }
  }
}

/// Full served estimate responses over a grid of graphs, keep
/// probabilities and sample counts, recorded with the earlier estimators
/// (std::upper_bound centre lookup; DOULION through Graph::from_edges and
/// count_triangles_forward).  Every body must stay byte-identical.
TEST(EstimatePinned, ServedBodiesMatchRecordedValues) {
  serve::Catalog catalog;
  catalog.add("gnm", graph::gnm(200, 1200, 7));
  catalog.add("layered", graph::layered_random(1000, 20, 0.2, 0.1, 3));
  catalog.add("ba", graph::barabasi_albert(400, 5, 11));
  serve::ServeOptions sopts;
  sopts.cache_capacity = 0;
  serve::Service service(catalog, sopts);
  std::uint64_t id = 0;
  const auto request = [&](const char* graph, serve::QueryKind kind) {
    serve::Request r;
    r.id = id++;
    r.tenant = "t";
    r.graph = graph;
    r.kind = kind;
    r.seed = 17 + id;
    return r;
  };
  for (const char* graph : {"gnm", "layered", "ba"}) {
    for (const double p : {0.05, 0.1, 0.5, 1.0}) {
      serve::Request r = request(graph, serve::QueryKind::kDoulion);
      r.p = p;
      service.submit(r);
    }
    for (const std::uint64_t samples : {1, 1024, 8192}) {
      serve::Request r = request(graph, serve::QueryKind::kWedges);
      r.samples = samples;
      service.submit(r);
    }
  }
  std::string got;
  for (const auto& resp : service.drain()) got += resp.line() + "\n";
  const std::string want =
      "id=0 tenant=t graph=gnm query=\"doulion p=0.05 seed=18\" status=ok estimate=0 sparsified=0 kept_edges=60 backend=host\n"
      "id=1 tenant=t graph=gnm query=\"doulion p=0.1 seed=19\" status=ok estimate=1000 sparsified=1 kept_edges=112 backend=host\n"
      "id=2 tenant=t graph=gnm query=\"doulion p=0.5 seed=20\" status=ok estimate=264 sparsified=33 kept_edges=583 backend=host\n"
      "id=3 tenant=t graph=gnm query=\"doulion p=1 seed=21\" status=ok estimate=305 sparsified=305 kept_edges=1200 backend=host\n"
      "id=4 tenant=t graph=gnm query=\"wedges samples=1 seed=22\" status=ok estimate=0 closed_fraction=0 wedges=14352 backend=host\n"
      "id=5 tenant=t graph=gnm query=\"wedges samples=1024 seed=23\" status=ok estimate=327.03125 closed_fraction=0.068359375 wedges=14352 backend=host\n"
      "id=6 tenant=t graph=gnm query=\"wedges samples=8192 seed=24\" status=ok estimate=317.1035156 closed_fraction=0.06628417969 wedges=14352 backend=host\n"
      "id=7 tenant=t graph=layered query=\"doulion p=0.05 seed=25\" status=ok estimate=8000 sparsified=1 kept_edges=187 backend=host\n"
      "id=8 tenant=t graph=layered query=\"doulion p=0.1 seed=26\" status=ok estimate=3000 sparsified=3 kept_edges=399 backend=host\n"
      "id=9 tenant=t graph=layered query=\"doulion p=0.5 seed=27\" status=ok estimate=1176 sparsified=147 kept_edges=1894 backend=host\n"
      "id=10 tenant=t graph=layered query=\"doulion p=1 seed=28\" status=ok estimate=1163 sparsified=1163 kept_edges=3839 backend=host\n"
      "id=11 tenant=t graph=layered query=\"wedges samples=1 seed=29\" status=ok estimate=0 closed_fraction=0 wedges=28931 backend=host\n"
      "id=12 tenant=t graph=layered query=\"wedges samples=1024 seed=30\" status=ok estimate=1158.370117 closed_fraction=0.1201171875 wedges=28931 backend=host\n"
      "id=13 tenant=t graph=layered query=\"wedges samples=8192 seed=31\" status=ok estimate=1161.901733 closed_fraction=0.1204833984 wedges=28931 backend=host\n"
      "id=14 tenant=t graph=ba query=\"doulion p=0.05 seed=32\" status=ok estimate=0 sparsified=0 kept_edges=87 backend=host\n"
      "id=15 tenant=t graph=ba query=\"doulion p=0.1 seed=33\" status=ok estimate=0 sparsified=0 kept_edges=206 backend=host\n"
      "id=16 tenant=t graph=ba query=\"doulion p=0.5 seed=34\" status=ok estimate=728 sparsified=91 kept_edges=988 backend=host\n"
      "id=17 tenant=t graph=ba query=\"doulion p=1 seed=35\" status=ok estimate=753 sparsified=753 kept_edges=1985 backend=host\n"
      "id=18 tenant=t graph=ba query=\"wedges samples=1 seed=36\" status=ok estimate=0 closed_fraction=0 wedges=35725 backend=host\n"
      "id=19 tenant=t graph=ba query=\"wedges samples=1024 seed=37\" status=ok estimate=895.4508464 closed_fraction=0.0751953125 wedges=35725 backend=host\n"
      "id=20 tenant=t graph=ba query=\"wedges samples=8192 seed=38\" status=ok estimate=750.0854492 closed_fraction=0.06298828125 wedges=35725 backend=host\n";
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace lgg::core
