#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/error.hpp"
#include "util/temp_path.hpp"

namespace lgg::graph {
namespace {

TEST(SnapIo, ParsesCommentsAndEdges) {
  std::istringstream in(
      "# Directed graph: example\n"
      "# Nodes: 4 Edges: 3\n"
      "10\t20\n"
      "20 30\n"
      "\n"
      "   # indented comment\n"
      "30\t10\n");
  const LoadedGraph loaded = read_snap_edge_list(in);
  EXPECT_EQ(loaded.graph.num_vertices(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 3u);
  // Original ids preserved in first-seen order.
  EXPECT_EQ(loaded.original_ids, (std::vector<std::uint64_t>{10, 20, 30}));
}

TEST(SnapIo, MalformedLineThrows) {
  std::istringstream in("1 2\nnot numbers\n");
  EXPECT_THROW(read_snap_edge_list(in), lgg::Error);
}

TEST(SnapIo, MissingFileThrows) {
  EXPECT_THROW(read_snap_edge_list_file("/nonexistent/graph.txt"), lgg::Error);
}

TEST(SnapIo, SelfLoopsDropped) {
  std::istringstream in("1 1\n1 2\n");
  const LoadedGraph loaded = read_snap_edge_list(in);
  EXPECT_EQ(loaded.graph.num_edges(), 1u);
}

TEST(SnapIo, RoundTripPreservesStructure) {
  const Graph g = erdos_renyi(60, 0.1, 17);
  std::ostringstream out;
  write_snap_edge_list(out, g, "round trip test");
  std::istringstream in(out.str());
  const LoadedGraph loaded = read_snap_edge_list(in);
  // Vertex ids are written dense, so the reload matches exactly up to
  // isolated vertices (which edge lists cannot represent).
  std::size_t non_isolated = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > 0) ++non_isolated;
  EXPECT_EQ(loaded.graph.num_vertices(), non_isolated);
  EXPECT_EQ(loaded.graph.num_edges(), g.num_edges());
}

TEST(SnapIo, WriteIncludesHeaderCounts) {
  const Graph g = complete(4);
  std::ostringstream out;
  write_snap_edge_list(out, g);
  EXPECT_NE(out.str().find("# Nodes: 4 Edges: 6"), std::string::npos);
}

TEST(SnapIo, FileRoundTrip) {
  const Graph g = complete(5);
  const util::TempPath file = util::TempPath::file("lgg-io");
  const std::string& path = file.path();
  write_snap_edge_list_file(path, g, "K5");
  const LoadedGraph loaded = read_snap_edge_list_file(path);
  EXPECT_EQ(loaded.graph.num_vertices(), 5u);
  EXPECT_EQ(loaded.graph.num_edges(), 10u);
}

// Regression: the file overload used to drop its options argument and
// always parse with the defaults, so pad_to_declared_nodes silently did
// nothing for files (while working for streams).
TEST(SnapIo, FileOverloadHonoursReadOptions) {
  const util::TempPath file = util::TempPath::file("lgg-io");
  const std::string& path = file.path();
  {
    std::ofstream out(path);
    out << "# Nodes: 9 Edges: 2\n0 1\n1 2\n";
  }
  const LoadedGraph plain = read_snap_edge_list_file(path);
  EXPECT_EQ(plain.graph.num_vertices(), 3u);

  SnapReadOptions opts;
  opts.pad_to_declared_nodes = true;
  const LoadedGraph padded = read_snap_edge_list_file(path, opts);
  ASSERT_TRUE(padded.declared_nodes.has_value());
  EXPECT_EQ(*padded.declared_nodes, 9u);
  EXPECT_EQ(padded.graph.num_vertices(), 9u);
  EXPECT_EQ(padded.graph.num_edges(), 2u);
}

}  // namespace
}  // namespace lgg::graph
