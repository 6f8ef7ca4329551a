#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include <unistd.h>

#include "core/triangle_cpu.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "stream/edge_stream.hpp"
#include "stream/streaming_triangles.hpp"
#include "util/error.hpp"

namespace lgg::stream {
namespace {

/// Writes `g` to a temp file whose name carries the process id: ctest -j
/// runs each parameterised case as its own process, all sharing TempDir().
std::string write_temp_graph(const graph::Graph& g, const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
  graph::write_snap_edge_list_file(path, g, "stream test");
  return path;
}

TEST(EdgeStream, MissingFileThrows) {
  EXPECT_THROW(EdgeStream("/nonexistent/stream.txt"), lgg::Error);
}

TEST(EdgeStream, StatsAndIteration) {
  const graph::Graph g = graph::erdos_renyi(50, 0.1, 3);
  const EdgeStream stream(write_temp_graph(g, "es_basic.txt"));
  std::uint64_t visited = 0;
  const StreamStats pass =
      stream.for_each_edge([&](std::uint64_t, std::uint64_t) { ++visited; });
  EXPECT_EQ(pass.edges, g.num_edges());
  EXPECT_EQ(visited, g.num_edges());
  EXPECT_EQ(stream.stats().edges, g.num_edges());
}

TEST(EdgeStream, SkipsCommentsAndLoops) {
  const std::string path = ::testing::TempDir() + "/es_loops.txt";
  {
    std::ofstream out(path);
    out << "# header\n1 1\n1 2\n\n2 3\n";
  }
  const EdgeStream stream(path);
  EXPECT_EQ(stream.stats().edges, 2u);
  EXPECT_EQ(stream.stats().max_vertex, 3u);
}

TEST(EdgeStream, MalformedLineThrows) {
  const std::string path = ::testing::TempDir() + "/es_bad.txt";
  {
    std::ofstream out(path);
    out << "1 2\noops\n";
  }
  const EdgeStream stream(path);
  EXPECT_THROW(stream.for_each_edge({}), lgg::Error);
}

class ExternalCount : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExternalCount, ExactUnderAnyBudget) {
  const std::uint64_t budget = GetParam();
  const graph::Graph g = graph::erdos_renyi(120, 0.08, 7);
  const std::uint64_t want = core::count_triangles_forward(g);
  const EdgeStream stream(write_temp_graph(g, "es_budget.txt"));
  const ExternalCountResult r = count_triangles_external(stream, budget);
  EXPECT_EQ(r.triangles, want) << "budget " << budget;
  EXPECT_GE(r.intervals, 1u);
  EXPECT_GT(r.passes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Budgets, ExternalCount,
                         ::testing::Values(10, 50, 200, 1000, 1u << 20));

TEST(ExternalCount, SmallerBudgetMorePassesLessMemory) {
  const graph::Graph g = graph::barabasi_albert(300, 4, 5);
  const EdgeStream stream(write_temp_graph(g, "es_tradeoff.txt"));
  const ExternalCountResult big = count_triangles_external(stream, 1u << 20);
  const ExternalCountResult small = count_triangles_external(stream, 64);
  EXPECT_EQ(big.triangles, small.triangles);
  EXPECT_GT(small.passes, big.passes);
  EXPECT_LT(small.peak_edges, 1200u);  // bounded working set
  EXPECT_GT(small.intervals, big.intervals);
}

TEST(ExternalCount, StructuredGraphs) {
  for (const auto& [g, want] :
       std::vector<std::pair<graph::Graph, std::uint64_t>>{
           {graph::complete(12), 220u},
           {graph::cycle(9), 0u},
           {graph::complete_bipartite(5, 5), 0u}}) {
    const EdgeStream stream(write_temp_graph(g, "es_structured.txt"));
    EXPECT_EQ(count_triangles_external(stream, 30).triangles, want);
  }
}

TEST(ExternalCount, EmptyStream) {
  const std::string path = ::testing::TempDir() + "/es_empty.txt";
  {
    std::ofstream out(path);
    out << "# nothing\n";
  }
  const EdgeStream stream(path);
  const ExternalCountResult r = count_triangles_external(stream, 100);
  EXPECT_EQ(r.triangles, 0u);
}

TEST(ExternalCount, TinyBudgetRejected) {
  const graph::Graph g = graph::complete(4);
  const EdgeStream stream(write_temp_graph(g, "es_tiny.txt"));
  EXPECT_THROW(count_triangles_external(stream, 2), lgg::Error);
}

TEST(DoulionStream, ExactAtPOne) {
  const graph::Graph g = graph::erdos_renyi(100, 0.1, 11);
  const EdgeStream stream(write_temp_graph(g, "es_doulion.txt"));
  const StreamDoulionResult r = doulion_stream(stream, 1.0, 3);
  EXPECT_EQ(r.kept_edges, g.num_edges());
  EXPECT_DOUBLE_EQ(r.estimate,
                   static_cast<double>(core::count_triangles_forward(g)));
}

TEST(DoulionStream, SampledEstimateInRange) {
  const graph::Graph g = graph::barabasi_albert(600, 6, 13);
  const auto truth = static_cast<double>(core::count_triangles_forward(g));
  const EdgeStream stream(write_temp_graph(g, "es_doulion2.txt"));
  double sum = 0;
  const int runs = 20;
  for (int s = 0; s < runs; ++s)
    sum += doulion_stream(stream, 0.5, 50 + s).estimate;
  EXPECT_NEAR(sum / runs, truth, 0.35 * truth);
}

TEST(DoulionStream, ValidatesP) {
  const graph::Graph g = graph::complete(4);
  const EdgeStream stream(write_temp_graph(g, "es_doulion3.txt"));
  EXPECT_THROW(doulion_stream(stream, 0.0, 1), lgg::Error);
  EXPECT_THROW(doulion_stream(stream, 1.0001, 1), lgg::Error);
}

}  // namespace
}  // namespace lgg::stream
