#include "graph/io.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"

namespace lgg::graph {

LoadedGraph read_snap_edge_list(std::istream& in,
                                const SnapReadOptions& opts) {
  std::unordered_map<std::uint64_t, Vertex> compact;
  LoadedGraph loaded;
  std::vector<Edge> edges;

  auto dense_id = [&](std::uint64_t raw) {
    auto [it, inserted] = compact.try_emplace(
        raw, static_cast<Vertex>(loaded.original_ids.size()));
    if (inserted) loaded.original_ids.push_back(raw);
    return it->second;
  };

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Skip blank lines; collect comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') {
      auto text = line.substr(first + 1);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      while (!text.empty() && (text.back() == '\r' || text.back() == ' '))
        text.pop_back();
      std::uint64_t nodes = 0;
      if (std::istringstream hs(text);
          (hs >> line) && line == "Nodes:" && (hs >> nodes)) {
        loaded.declared_nodes = nodes;
        // Headers precede the edge lines in real SNAP files, so the
        // declared count is a free sizing hint for the id-compaction
        // tables (a measurable allocation win on big files).  Capped so a
        // corrupt header cannot force an absurd allocation.
        if (const auto hint = std::min<std::uint64_t>(nodes, 1u << 28)) {
          compact.reserve(hint);
          loaded.original_ids.reserve(hint);
        }
      }
      loaded.comments.push_back(std::move(text));
      continue;
    }

    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v))
      LGG_THROW("SNAP edge list: malformed line " << lineno << ": '" << line
                                                  << "'");
    // Sequence the id lookups explicitly: argument evaluation order is
    // unspecified and first-seen-order ids must follow the file.
    const Vertex du = dense_id(u);
    const Vertex dv = dense_id(v);
    edges.emplace_back(du, dv);
  }
  std::size_t n = loaded.original_ids.size();
  if (opts.pad_to_declared_nodes && loaded.declared_nodes)
    n = std::max(n, *loaded.declared_nodes);
  loaded.graph = Graph::from_edges(n, edges);
  return loaded;
}

std::ifstream open_graph_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  LGG_CHECK(in.good(), "cannot open graph file: " << path);
  std::error_code ec;
  LGG_CHECK(!std::filesystem::is_directory(path, ec),
            "graph file is a directory: " << path);
  return in;
}

LoadedGraph read_snap_edge_list_file(const std::string& path,
                                     const SnapReadOptions& opts) {
  std::ifstream in = open_graph_file(path);
  return read_snap_edge_list(in, opts);
}

void write_snap_edge_list(std::ostream& out, const Graph& g,
                          const std::string& comment) {
  out << "# SNAP-format undirected edge list\n";
  if (!comment.empty()) out << "# " << comment << '\n';
  out << "# Nodes: " << g.num_vertices() << " Edges: " << g.num_edges()
      << '\n';
  for (const auto& [u, v] : g.edges()) out << u << '\t' << v << '\n';
}

void write_snap_edge_list_file(const std::string& path, const Graph& g,
                               const std::string& comment) {
  std::ofstream out(path);
  LGG_CHECK(out.good(), "cannot open file for writing: " << path);
  write_snap_edge_list(out, g, comment);
  LGG_CHECK(out.good(), "error while writing graph file: " << path);
}

}  // namespace lgg::graph
