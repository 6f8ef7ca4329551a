#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/triangle_cpu.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "stream/edge_stream.hpp"
#include "stream/streaming_triangles.hpp"
#include "util/error.hpp"
#include "util/temp_path.hpp"

namespace lgg::stream {
namespace {

/// Writes `g` to a fresh temp file, removed when the result is destroyed.
util::TempPath write_temp_graph(const graph::Graph& g) {
  util::TempPath file = util::TempPath::file("lgg-stream");
  graph::write_snap_edge_list_file(file.path(), g, "stream test");
  return file;
}

/// Writes `text` verbatim to a fresh temp file.
util::TempPath write_temp_text(const std::string& text) {
  util::TempPath file = util::TempPath::file("lgg-stream");
  std::ofstream(file.path()) << text;
  return file;
}

TEST(EdgeStream, MissingFileThrows) {
  EXPECT_THROW(EdgeStream("/nonexistent/stream.txt"), lgg::Error);
}

TEST(EdgeStream, StatsAndIteration) {
  const graph::Graph g = graph::erdos_renyi(50, 0.1, 3);
  const util::TempPath file = write_temp_graph(g);
  const EdgeStream stream(file.path());
  std::uint64_t visited = 0;
  const StreamStats pass =
      stream.for_each_edge([&](std::uint64_t, std::uint64_t) { ++visited; });
  EXPECT_EQ(pass.edges, g.num_edges());
  EXPECT_EQ(visited, g.num_edges());
  EXPECT_EQ(stream.stats().edges, g.num_edges());
}

TEST(EdgeStream, SkipsCommentsAndLoops) {
  const util::TempPath file = write_temp_text("# header\n1 1\n1 2\n\n2 3\n");
  const EdgeStream stream(file.path());
  EXPECT_EQ(stream.stats().edges, 2u);
  EXPECT_EQ(stream.stats().max_vertex, 3u);
}

TEST(EdgeStream, MalformedLineThrows) {
  const util::TempPath file = write_temp_text("1 2\noops\n");
  const EdgeStream stream(file.path());
  EXPECT_THROW(stream.for_each_edge({}), lgg::Error);
}

class ExternalCount : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExternalCount, ExactUnderAnyBudget) {
  const std::uint64_t budget = GetParam();
  const graph::Graph g = graph::erdos_renyi(120, 0.08, 7);
  const std::uint64_t want = core::count_triangles_forward(g);
  const util::TempPath file = write_temp_graph(g);
  const EdgeStream stream(file.path());
  const ExternalCountResult r = count_triangles_external(stream, budget);
  EXPECT_EQ(r.triangles, want) << "budget " << budget;
  EXPECT_GE(r.intervals, 1u);
  EXPECT_GT(r.passes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Budgets, ExternalCount,
                         ::testing::Values(10, 50, 200, 1000, 1u << 20));

TEST(ExternalCount, SmallerBudgetMorePassesLessMemory) {
  const graph::Graph g = graph::barabasi_albert(300, 4, 5);
  const util::TempPath file = write_temp_graph(g);
  const EdgeStream stream(file.path());
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
    const util::TempPath file = write_temp_graph(g);
    const EdgeStream stream(file.path());
    EXPECT_EQ(count_triangles_external(stream, 30).triangles, want);
  }
}

TEST(ExternalCount, EmptyStream) {
  const util::TempPath file = write_temp_text("# nothing\n");
  const EdgeStream stream(file.path());
  const ExternalCountResult r = count_triangles_external(stream, 100);
  EXPECT_EQ(r.triangles, 0u);
}

TEST(ExternalCount, TinyBudgetRejected) {
  const graph::Graph g = graph::complete(4);
  const util::TempPath file = write_temp_graph(g);
  const EdgeStream stream(file.path());
  EXPECT_THROW(count_triangles_external(stream, 2), lgg::Error);
}

TEST(DoulionStream, ExactAtPOne) {
  const graph::Graph g = graph::erdos_renyi(100, 0.1, 11);
  const util::TempPath file = write_temp_graph(g);
  const EdgeStream stream(file.path());
  const StreamDoulionResult r = doulion_stream(stream, 1.0, 3);
  EXPECT_EQ(r.kept_edges, g.num_edges());
  EXPECT_DOUBLE_EQ(r.estimate,
                   static_cast<double>(core::count_triangles_forward(g)));
}

TEST(DoulionStream, SampledEstimateInRange) {
  const graph::Graph g = graph::barabasi_albert(600, 6, 13);
  const auto truth = static_cast<double>(core::count_triangles_forward(g));
  const util::TempPath file = write_temp_graph(g);
  const EdgeStream stream(file.path());
  double sum = 0;
  const int runs = 20;
  for (int s = 0; s < runs; ++s)
    sum += doulion_stream(stream, 0.5, 50 + s).estimate;
  EXPECT_NEAR(sum / runs, truth, 0.35 * truth);
}

TEST(DoulionStream, ValidatesP) {
  const graph::Graph g = graph::complete(4);
  const util::TempPath file = write_temp_graph(g);
  const EdgeStream stream(file.path());
  EXPECT_THROW(doulion_stream(stream, 0.0, 1), lgg::Error);
  EXPECT_THROW(doulion_stream(stream, 1.0001, 1), lgg::Error);
}

}  // namespace
}  // namespace lgg::stream
