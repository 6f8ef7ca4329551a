// Catalog of resident graphs with cached preprocessing (DESIGN.md §15).
//
// The paper's economics are all about amortization: BFS levelling, the
// Algorithm 1 chunk schedule and the degree-ordered orientation cost far
// more than a single query on a resident graph, so the catalog computes
// them ONCE at admission and every query after that reuses the artifacts:
//
//   * core::AlsPrecomputed — the full Algorithm 1 plan; prepared device
//     runs charge ZERO modelled preprocessing (core/hybrid.hpp),
//   * ingest::OrientedGraph — the DODG the fast host triangle counter
//     intersects,
//   * per-source BFS summaries and the per-vertex clustering-coefficient
//     vector, memoized on first use.
//
// Every artifact is a pure function of the graph content, so residency is
// unobservable in results — only latency (and modelled preprocessing
// time) drops.  Catalog mutation (add/load) happens before serving
// starts; memoized artifacts are written only on the Service::drain
// thread, and read concurrently only while a wave computes (when nothing
// writes them).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/hybrid.hpp"
#include "graph/bfs.hpp"
#include "graph/io.hpp"
#include "ingest/orient.hpp"
#include "obs/obs.hpp"

namespace lgg::serve {

struct CatalogOptions {
  /// Ingest worker budget (ingest::IngestOptions::threads semantics);
  /// the loaded graph is byte-identical at any setting.
  std::size_t threads = 0;
  /// Device whose shared-memory budget the ALS plan targets; nullptr
  /// selects the paper's C1060 (must match the Service's device).
  const gpusim::DeviceSpec* device = nullptr;
  graph::SizeMetric metric = graph::SizeMetric::kSutm;
  /// Optional observability session: load spans + lgg_serve_* counters.
  obs::Session* obs = nullptr;
};

/// What a bfs query answers from one BFS tree: its depth and how many
/// vertices it reached.  The memo keeps only this, not the O(n) tree.
struct BfsSummary {
  std::uint32_t depth = 0;
  std::uint64_t reached = 0;

  friend bool operator==(const BfsSummary&, const BfsSummary&) = default;
};

/// Summarise a BFS tree.
BfsSummary summarize_bfs(const graph::BfsTree& tree);

/// One resident graph and its cached preprocessing artifacts.
struct ResidentGraph {
  std::string name;
  graph::LoadedGraph loaded;
  std::uint64_t digest = 0;  // graph::loaded_graph_digest(loaded)
  core::AlsPrecomputed plan;
  ingest::OrientedGraph dodg;
  /// Memoized per-source BFS summaries (filled on first bfs query).
  std::map<graph::Vertex, BfsSummary> bfs_memo;
  /// Memoized per-vertex clustering coefficients (first cc query).
  std::optional<std::vector<double>> cc_memo;
};

class Catalog {
 public:
  explicit Catalog(const CatalogOptions& opts = {}) : opts_(opts) {}

  /// Load a SNAP edge-list file through the parallel ingest pipeline and
  /// make it resident under `name`.  Throws lgg::Error on IO/parse errors
  /// or a duplicate name.  Returns the entry.
  ResidentGraph& load_file(const std::string& name, const std::string& path);

  /// Make an in-memory graph resident under `name` (generators, tests).
  ResidentGraph& add(const std::string& name, graph::Graph g);

  /// Resident entry, or nullptr when the name is unknown.
  [[nodiscard]] ResidentGraph* find(const std::string& name);

  [[nodiscard]] std::size_t size() const noexcept { return graphs_.size(); }

  /// Resident names, ascending.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const CatalogOptions& options() const noexcept {
    return opts_;
  }

 private:
  ResidentGraph& admit(const std::string& name, graph::LoadedGraph loaded);

  CatalogOptions opts_;
  std::map<std::string, ResidentGraph> graphs_;
};

}  // namespace lgg::serve
