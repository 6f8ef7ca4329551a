// Breadth-first search, connected components, and the BFS-level machinery
// that drives the paper's algorithms.
//
// The key structural fact (paper Sections III, V, VII): every edge of G
// joins vertices whose BFS levels differ by at most 1, so any triangle is
// contained in the union of two consecutive BFS levels.  Algorithm 2
// therefore iterates over *adjacent level sets* (ALS): pairs
// (L_i, L_{i+1}), plus the final level alone (Fig. 3), which
// core::append_als_jobs (core/als_plan.hpp) builds from a
// LevelDecomposition.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace lgg::graph {

inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// BFS tree of one source: parent pointers and levels; vertices in other
/// components keep level == kUnreached.
struct BfsTree {
  Vertex source = 0;
  std::vector<Vertex> parent;        // parent[source] == source
  std::vector<std::uint32_t> level;  // hop distance from source
  std::uint32_t depth = 0;           // max reached level
};

/// Standard queue BFS from `source`.
BfsTree bfs(const Graph& g, Vertex source);

/// Connected components by repeated BFS; component ids are dense in
/// [0, count) and assigned in order of the smallest contained vertex.
struct Components {
  std::vector<std::uint32_t> component_of;  // per vertex
  std::uint32_t count = 0;
  /// Every vertex grouped by component id, ascending within a group;
  /// component c owns members[offsets[c], offsets[c + 1]).
  std::vector<Vertex> members;
  std::vector<std::size_t> offsets;  // count + 1 entries

  /// Vertices of component c, ascending (a view into `members`).
  [[nodiscard]] std::span<const Vertex> vertices_of(std::uint32_t c) const;
};
Components connected_components(const Graph& g);

/// The vertices of one component bucketed by BFS level (paper's
/// divIntoConsecutiveLvlSets).  Levels are vectors of vertex ids, ascending
/// within each level.
class LevelDecomposition {
 public:
  LevelDecomposition() = default;
  /// Adopts levels that are already bucketed, each ascending.
  explicit LevelDecomposition(std::vector<std::vector<Vertex>> levels)
      : levels_(std::move(levels)) {}

  [[nodiscard]] std::size_t num_levels() const noexcept {
    return levels_.size();
  }
  [[nodiscard]] std::span<const Vertex> level(std::size_t i) const noexcept {
    return levels_[i];
  }
  [[nodiscard]] const std::vector<std::vector<Vertex>>& levels() const noexcept {
    return levels_;
  }

 private:
  std::vector<std::vector<Vertex>> levels_;
};

/// Level-only BFS over one connected component at a time: no parents,
/// a vector queue, and one workspace reused across walks.  A walk resets
/// only the vertices the previous walk reached, so it costs
/// O(component), not O(n).  Direction-optimizing (Beamer, Asanovic and
/// Patterson, SC'12): a level is expanded bottom-up (every unreached
/// component vertex looks for a neighbour on the frontier) while the
/// frontier's edges outnumber both the unexplored edges / 14 and the
/// component's edges / 24, and top-down again once a shrinking frontier
/// holds under 1/24 of the component's vertices.  The second test keeps
/// high-diameter graphs (paths, grids, layered graphs) top-down: their
/// levels each hold a small share of the edges, even near the end of a
/// walk where few edges are left unexplored.  The direction changes only
/// which edges are scanned; every vertex's level is its hop distance from
/// the root either way.
class LevelWalker {
 public:
  explicit LevelWalker(const Graph& g);

  /// BFS from `root` over `component`, the ascending vertex list of
  /// root's component (Components::vertices_of).  Returns the number of
  /// vertices on each level; the view is valid until the next walk.
  std::span<const std::size_t> walk(Vertex root,
                                    std::span<const Vertex> component);

  /// Level of v in the last walk; kUnreached outside its component.
  [[nodiscard]] std::uint32_t level_of(Vertex v) const noexcept {
    return level_[v];
  }

  /// The last walk's levels, each filled in `component` order, so
  /// ascending without a sort.
  [[nodiscard]] LevelDecomposition decomposition(
      std::span<const Vertex> component) const;

 private:
  const Graph& g_;
  std::vector<std::uint32_t> level_;   // kUnreached but the last walk's
  std::vector<Vertex> order_;          // the last walk's, level by level
  std::vector<Vertex> unvisited_;      // bottom-up candidates
  std::vector<std::size_t> sizes_;     // vertices per level
};

/// The level decomposition of every component, indexed by component id,
/// each rooted at the component's smallest vertex.
std::vector<LevelDecomposition> component_levels(const Graph& g);

}  // namespace lgg::graph
