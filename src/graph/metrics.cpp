#include "graph/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "graph/bfs.hpp"
#include "util/error.hpp"

namespace lgg::graph {

DegreeStats degree_stats(const Graph& g) {
  DegreeStats stats;
  const std::size_t n = g.num_vertices();
  if (n == 0) return stats;

  std::vector<std::size_t> degrees(n);
  for (Vertex v = 0; v < n; ++v) degrees[v] = g.degree(v);
  stats.min = *std::min_element(degrees.begin(), degrees.end());
  stats.max = *std::max_element(degrees.begin(), degrees.end());
  stats.mean = 2.0 * static_cast<double>(g.num_edges()) /
               static_cast<double>(n);

  std::vector<std::size_t> sorted = degrees;
  std::sort(sorted.begin(), sorted.end());
  stats.median = n % 2 ? static_cast<double>(sorted[n / 2])
                       : (static_cast<double>(sorted[n / 2 - 1]) +
                          static_cast<double>(sorted[n / 2])) /
                             2.0;

  stats.histogram.assign(stats.max + 1, 0);
  for (const std::size_t d : degrees) ++stats.histogram[d];
  return stats;
}

double density(const Graph& g) {
  const std::size_t n = g.num_vertices();
  if (n < 2) return 0.0;
  return static_cast<double>(g.num_edges()) /
         (static_cast<double>(n) * static_cast<double>(n - 1) / 2.0);
}

CoreDecomposition core_decomposition(const Graph& g) {
  const std::size_t n = g.num_vertices();
  CoreDecomposition result;
  result.core.assign(n, 0);
  result.order.reserve(n);
  if (n == 0) return result;

  // Matula–Beck: bucket vertices by current degree, repeatedly remove a
  // minimum-degree vertex.
  const std::size_t max_deg = g.max_degree();
  std::vector<std::uint32_t> degree(n);
  std::vector<std::vector<Vertex>> bucket(max_deg + 1);
  for (Vertex v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.degree(v));
    bucket[degree[v]].push_back(v);
  }

  std::vector<bool> removed(n, false);
  std::uint32_t current = 0;
  std::size_t processed = 0;
  std::size_t cursor = 0;  // smallest possibly non-empty bucket
  while (processed < n) {
    while (cursor <= max_deg && bucket[cursor].empty()) ++cursor;
    LGG_ASSERT(cursor <= max_deg);
    const Vertex v = bucket[cursor].back();
    bucket[cursor].pop_back();
    if (removed[v] || degree[v] != cursor) continue;  // stale entry

    current = std::max(current, static_cast<std::uint32_t>(cursor));
    result.core[v] = current;
    result.order.push_back(v);
    removed[v] = true;
    ++processed;

    for (const Vertex u : g.neighbors(v)) {
      if (removed[u]) continue;
      if (degree[u] > cursor) {
        --degree[u];
        bucket[degree[u]].push_back(u);
        if (degree[u] < cursor) cursor = degree[u];
      }
    }
  }
  result.degeneracy = current;
  return result;
}

std::uint32_t diameter_double_sweep(const Graph& g, Vertex seed_vertex) {
  if (g.num_vertices() == 0) return 0;
  LGG_CHECK(seed_vertex < g.num_vertices(),
            "diameter_double_sweep: seed out of range");
  const BfsTree first = bfs(g, seed_vertex);
  // Farthest reached vertex from the seed.
  Vertex far = seed_vertex;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (first.level[v] != kUnreached && first.level[v] > first.level[far])
      far = v;
  const BfsTree second = bfs(g, far);
  return second.depth;
}

double degree_assortativity(const Graph& g) {
  // Pearson correlation over the multiset of edge-endpoint degree pairs
  // (each edge contributes both orientations).
  double sum_x = 0, sum_xx = 0, sum_xy = 0;
  std::uint64_t count = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto du = static_cast<double>(g.degree(u));
    for (const Vertex v : g.neighbors(u)) {
      const auto dv = static_cast<double>(g.degree(v));
      sum_x += du;
      sum_xx += du * du;
      sum_xy += du * dv;
      ++count;
    }
  }
  if (count < 2) return 0.0;
  const auto cnt = static_cast<double>(count);
  const double mean = sum_x / cnt;
  const double var = sum_xx / cnt - mean * mean;
  if (var <= 0) return 0.0;
  const double cov = sum_xy / cnt - mean * mean;
  return cov / var;
}

}  // namespace lgg::graph
