// Test oracle for the level walker: a graph::bfs tree bucketed by level.
#pragma once

#include <utility>
#include <vector>

#include "graph/bfs.hpp"

namespace lgg::graph {

/// The reached vertices of `tree` bucketed by level, each level ascending:
/// what LevelWalker::decomposition must return for the same root.
inline LevelDecomposition levels_of(const BfsTree& tree) {
  std::vector<std::vector<Vertex>> levels(tree.depth + 1);
  for (Vertex v = 0; v < tree.level.size(); ++v)
    if (tree.level[v] != kUnreached) levels[tree.level[v]].push_back(v);
  return LevelDecomposition(std::move(levels));
}

}  // namespace lgg::graph
