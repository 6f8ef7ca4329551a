#include <gtest/gtest.h>

#include "combi/binomial.hpp"
#include "core/kcount.hpp"
#include "core/subgraph_gpu.hpp"
#include "core/triangle_cpu.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace lgg::core {
namespace {

using graph::Graph;

GpuKCountOptions small_launch() {
  GpuKCountOptions opts;
  opts.blocks = 4;
  opts.threads_per_block = 64;
  return opts;
}

class GpuKCliques : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GpuKCliques, MatchesCpuOracle) {
  const std::uint32_t k = GetParam();
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const Graph g = graph::erdos_renyi(30, 0.3, seed);
    const GpuKCountResult r = count_kcliques_gpu(g, k, small_launch());
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.count, count_kcliques(g, k)) << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(K, GpuKCliques, ::testing::Values(1, 2, 3, 4, 5));

TEST(GpuKCliques, StructuredGraphs) {
  EXPECT_EQ(count_kcliques_gpu(graph::complete(10), 4, small_launch()).count,
            combi::binomial(10, 4));
  EXPECT_EQ(count_kcliques_gpu(graph::cycle(12), 3, small_launch()).count, 0u);
  EXPECT_EQ(
      count_kcliques_gpu(graph::complete_bipartite(5, 5), 3, small_launch())
          .count,
      0u);
  // k = 3 equals the triangle counters.
  const Graph g = graph::barabasi_albert(80, 3, 4);
  EXPECT_EQ(count_kcliques_gpu(g, 3, small_launch()).count,
            count_triangles_edge_iterator(g));
}

TEST(GpuKCount, SamplingRescalesAndFlags) {
  const Graph g = graph::erdos_renyi(60, 0.3, 9);
  GpuKCountOptions opts = small_launch();
  const GpuKCountResult exact = count_kcliques_gpu(g, 3, opts);
  opts.max_simulated_tests = exact.total_tests / 4;
  const GpuKCountResult sampled = count_kcliques_gpu(g, 3, opts);
  EXPECT_FALSE(sampled.exact);
  EXPECT_LT(sampled.simulated_tests, sampled.total_tests);
  EXPECT_NEAR(static_cast<double>(sampled.kernel.global_slots),
              static_cast<double>(exact.kernel.global_slots),
              0.1 * static_cast<double>(exact.kernel.global_slots));
}

TEST(GpuKCount, PairProbesScaleWithK) {
  const Graph g = graph::erdos_renyi(24, 0.4, 3);
  const auto k3 = count_kcliques_gpu(g, 3, small_launch());
  const auto k4 = count_kcliques_gpu(g, 4, small_launch());
  // C(3,2)=3 vs C(4,2)=6 probes per candidate.
  EXPECT_NEAR(static_cast<double>(k3.kernel.transactions) /
                  static_cast<double>(k3.total_tests * 3),
              static_cast<double>(k4.kernel.transactions) /
                  static_cast<double>(k4.total_tests * 6),
              1.0);
}

TEST(GpuKCount, Validation) {
  EXPECT_THROW(count_kcliques_gpu(Graph(3), 0, small_launch()), lgg::Error);
  EXPECT_THROW(count_kcliques_gpu(Graph(3), 17, small_launch()), lgg::Error);
  GpuKCountOptions bad = small_launch();
  bad.threads_per_block = 33;
  EXPECT_THROW(count_kcliques_gpu(Graph(3), 3, bad), lgg::Error);
}

TEST(GpuKCount, EmptyGraph) {
  const auto r = count_kcliques_gpu(Graph(0), 3, small_launch());
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.total_tests, 0u);
  EXPECT_TRUE(r.exact);
}

// ---- listing ----

TEST(GpuListing, MatchesHostListing) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    const Graph g = graph::erdos_renyi(40, 0.2, seed);
    const GpuTriangleListing listing = list_triangles_gpu(g, small_launch());
    ASSERT_TRUE(listing.exact);
    auto host = list_triangles(g);
    std::sort(host.begin(), host.end());
    EXPECT_EQ(listing.triangles, host) << "seed " << seed;
    EXPECT_EQ(listing.output_bytes, host.size() * 12);
  }
}

TEST(GpuListing, OutputTrafficCharged) {
  const Graph g = graph::complete(16);  // 560 triangles
  const GpuTriangleListing listing = list_triangles_gpu(g, small_launch());
  const GpuKCountResult counting = count_kcliques_gpu(g, 3, small_launch());
  EXPECT_EQ(listing.triangles.size(), 560u);
  EXPECT_GT(listing.kernel.transactions, counting.kernel.transactions);
  EXPECT_GT(listing.kernel.bytes, counting.kernel.bytes);
}

TEST(GpuListing, TriangleFreeGraphListsNothing) {
  const GpuTriangleListing listing =
      list_triangles_gpu(graph::complete_bipartite(6, 6), small_launch());
  EXPECT_TRUE(listing.exact);
  EXPECT_TRUE(listing.triangles.empty());
  EXPECT_EQ(listing.output_bytes, 0u);
}

}  // namespace
}  // namespace lgg::core
