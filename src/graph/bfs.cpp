#include "graph/bfs.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace lgg::graph {

BfsTree bfs(const Graph& g, Vertex source) {
  LGG_CHECK(source < g.num_vertices(),
            "bfs: source " << source << " out of range");
  BfsTree tree;
  tree.source = source;
  tree.parent.assign(g.num_vertices(), kUnreached);
  tree.level.assign(g.num_vertices(), kUnreached);

  std::deque<Vertex> queue;
  tree.parent[source] = source;
  tree.level[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    tree.depth = std::max(tree.depth, tree.level[u]);
    for (Vertex v : g.neighbors(u)) {
      if (tree.level[v] == kUnreached) {
        tree.level[v] = tree.level[u] + 1;
        tree.parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return tree;
}

Components connected_components(const Graph& g) {
  const std::size_t n = g.num_vertices();
  Components comps;
  comps.component_of.assign(n, kUnreached);
  // BFS queue: each component's vertices end up contiguous in `members`.
  std::vector<Vertex>& queue = comps.members;
  queue.reserve(n);
  for (Vertex start = 0; start < n; ++start) {
    if (comps.component_of[start] != kUnreached) continue;
    const std::uint32_t id = comps.count++;
    comps.offsets.push_back(queue.size());
    comps.component_of[start] = id;
    queue.push_back(start);
    for (std::size_t head = queue.size() - 1; head < queue.size(); ++head) {
      for (Vertex v : g.neighbors(queue[head])) {
        if (comps.component_of[v] == kUnreached) {
          comps.component_of[v] = id;
          queue.push_back(v);
        }
      }
    }
  }
  comps.offsets.push_back(n);
  // Reorder each group ascending: a counting sort by component id.
  std::vector<std::size_t> cursor(comps.offsets.begin(),
                                  comps.offsets.end() - 1);
  for (Vertex v = 0; v < n; ++v)
    comps.members[cursor[comps.component_of[v]]++] = v;
  return comps;
}

std::span<const Vertex> Components::vertices_of(std::uint32_t c) const {
  return std::span<const Vertex>(members).subspan(
      offsets[c], offsets[c + 1] - offsets[c]);
}

namespace {

// Beamer et al.'s switch constants (SC'12, Section 4).
constexpr std::uint64_t kAlpha = 14;
constexpr std::size_t kBeta = 24;

}  // namespace

LevelWalker::LevelWalker(const Graph& g)
    : g_(g), level_(g.num_vertices(), kUnreached) {}

std::span<const std::size_t> LevelWalker::walk(
    Vertex root, std::span<const Vertex> component) {
  LGG_CHECK(root < level_.size(),
            "LevelWalker: root " << root << " out of range");
  for (const Vertex v : order_) level_[v] = kUnreached;
  order_.clear();
  sizes_.clear();
  order_.reserve(component.size());

  std::uint64_t edges = 0;  // edge ends in the component
  for (const Vertex v : component) edges += g_.degree(v);
  level_[root] = 0;
  order_.push_back(root);
  std::uint64_t frontier_edges = g_.degree(root);
  std::uint64_t unexplored = edges - frontier_edges;  // ends not yet reached

  bool bottom_up = false;
  std::size_t begin = 0;  // the frontier is order_[begin, end)
  for (std::uint32_t depth = 0; begin < order_.size(); ++depth) {
    const std::size_t end = order_.size();
    const std::size_t frontier = end - begin;
    if (!bottom_up && frontier_edges > unexplored / kAlpha &&
        frontier_edges > edges / kBeta) {
      bottom_up = true;
      unvisited_.clear();
      for (const Vertex v : component)
        if (level_[v] == kUnreached) unvisited_.push_back(v);
    } else if (bottom_up && frontier < sizes_.back() &&
               frontier < component.size() / kBeta) {
      bottom_up = false;
    }
    sizes_.push_back(frontier);

    frontier_edges = 0;
    if (bottom_up) {
      std::size_t kept = 0;
      for (const Vertex v : unvisited_) {
        bool reached = false;
        for (const Vertex w : g_.neighbors(v)) {
          if (level_[w] == depth) {
            reached = true;
            break;
          }
        }
        if (reached) {
          level_[v] = depth + 1;
          order_.push_back(v);
          frontier_edges += g_.degree(v);
        } else {
          unvisited_[kept++] = v;
        }
      }
      unvisited_.resize(kept);
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        for (const Vertex w : g_.neighbors(order_[i])) {
          if (level_[w] == kUnreached) {
            level_[w] = depth + 1;
            order_.push_back(w);
            frontier_edges += g_.degree(w);
          }
        }
      }
    }
    unexplored -= frontier_edges;
    begin = end;
  }
  return sizes_;
}

LevelDecomposition LevelWalker::decomposition(
    std::span<const Vertex> component) const {
  std::vector<std::vector<Vertex>> levels(sizes_.size());
  for (std::size_t l = 0; l < sizes_.size(); ++l) levels[l].reserve(sizes_[l]);
  for (const Vertex v : component) levels[level_[v]].push_back(v);
  return LevelDecomposition(std::move(levels));
}

std::vector<LevelDecomposition> component_levels(const Graph& g) {
  const Components comps = connected_components(g);
  LevelWalker walker(g);
  std::vector<LevelDecomposition> out;
  out.reserve(comps.count);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const std::span<const Vertex> members = comps.vertices_of(c);
    walker.walk(members.front(), members);
    out.push_back(walker.decomposition(members));
  }
  return out;
}

}  // namespace lgg::graph
