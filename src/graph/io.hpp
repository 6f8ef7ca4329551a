// SNAP-style edge-list IO.
//
// The Stanford Network Analysis Project distributes graphs as whitespace-
// separated "u v" lines with '#' comment lines.  Vertex ids in SNAP files
// are arbitrary (sparse) integers; the loader compacts them to dense
// [0, n) ids and returns the mapping.  This lets real SNAP files drive the
// Fig. 11 bench when present; otherwise the synthetic generators stand in.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace lgg::graph {

struct LoadedGraph {
  Graph graph;
  /// dense id -> original id from the file.
  std::vector<std::uint64_t> original_ids;
  /// '#' comment lines in file order, leading "# " stripped.
  std::vector<std::string> comments;
  /// n from a "# Nodes: n Edges: m" header comment, when present.
  std::optional<std::size_t> declared_nodes;
};

struct SnapReadOptions {
  /// Pad the graph with isolated vertices up to `declared_nodes` when the
  /// header declares more vertices than the edge lines mention.  This is
  /// what lets files round-trip graphs with isolated vertices (up to the
  /// first-seen-order relabelling, which every lgg analysis is invariant
  /// to); the fuzz regression corpus relies on it.
  bool pad_to_declared_nodes = false;
};

/// Open the SNAP edge-list file at `path` (binary mode) for either loader.
/// Throws lgg::Error naming the path when it cannot be opened or is a
/// directory: a directory opens as a stream whose reads all fail, which
/// would otherwise load as an empty graph or size a buffer from a bogus
/// length.  Other non-regular files, such as pipes, open normally.
std::ifstream open_graph_file(const std::string& path);

/// Parse a SNAP edge-list stream.  Throws lgg::Error on malformed lines.
LoadedGraph read_snap_edge_list(std::istream& in,
                                const SnapReadOptions& opts = {});

/// Parse a SNAP edge-list file.  Throws lgg::Error if the file cannot be
/// opened (open_graph_file) or is malformed.
LoadedGraph read_snap_edge_list_file(const std::string& path,
                                     const SnapReadOptions& opts = {});

/// Write a graph as a SNAP edge list ("u v" per undirected edge, u < v),
/// with a comment header.
void write_snap_edge_list(std::ostream& out, const Graph& g,
                          const std::string& comment = {});

void write_snap_edge_list_file(const std::string& path, const Graph& g,
                               const std::string& comment = {});

}  // namespace lgg::graph
