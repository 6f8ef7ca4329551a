#include "core/triangle_cpu.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

namespace {

/// Size of the intersection of two sorted vertex lists.
std::uint64_t intersection_size(std::span<const Vertex> a,
                                std::span<const Vertex> b) {
  std::uint64_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib)
      ++ia;
    else if (*ib < *ia)
      ++ib;
    else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

}  // namespace

std::uint64_t count_triangles_edge_iterator(const Graph& g) {
  std::uint64_t total = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (const Vertex v : g.neighbors(u))
      if (u < v) total += intersection_size(g.neighbors(u), g.neighbors(v));
  // Each triangle {u,v,w} is found once per edge: 3 times.
  return total / 3;
}

std::uint64_t count_triangles_forward(const Graph& g) {
  const std::size_t n = g.num_vertices();
  // Rank vertices by (degree, id); orient every edge toward higher rank.
  std::vector<std::uint32_t> rank(n);
  {
    std::vector<Vertex> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](Vertex x, Vertex y) {
      const auto dx = g.degree(x), dy = g.degree(y);
      return dx != dy ? dx < dy : x < y;
    });
    for (std::uint32_t r = 0; r < n; ++r) rank[order[r]] = r;
  }

  std::vector<std::vector<Vertex>> out(n);
  for (Vertex u = 0; u < n; ++u)
    for (const Vertex v : g.neighbors(u))
      if (rank[u] < rank[v]) out[u].push_back(v);
  // Neighbour lists are sorted by id already; keep that order for merging.

  std::uint64_t total = 0;
  for (Vertex u = 0; u < n; ++u)
    for (const Vertex v : out[u])
      total += intersection_size(out[u], out[v]);
  return total;
}

std::uint64_t count_triangles_bitmatrix(const graph::BitMatrix& m) {
  std::uint64_t total = 0;
  const std::size_t n = m.size();
  for (std::size_t u = 0; u < n; ++u) {
    const auto row_u = m.row(u);
    for_each_set_bit(row_u, [&](std::size_t v) {
      if (v > u) total += and_popcount(row_u, m.row(v));
    });
  }
  // Each triangle counted once per edge (u < v), and the AND picks up both
  // w < u and w > v etc.: every triangle appears 3 times in total.
  return total / 3;
}

CpuAlsResult count_triangles_cpu_als(const Graph& g) {
  CpuAlsResult result;
  const AlsPlan plan = build_als_plan(g);
  result.bfs_edges = plan.bfs_edges_visited;
  if (plan.total_tests == 0) return result;

  // Walk the whole test space in index order, short-circuiting the second
  // and third probes — the natural scalar implementation.
  TestCursor cursor(plan.jobs);
  cursor.seek(0);
  do {
    const AlsJob& job = cursor.job();
    const TestTriple& t = cursor.triple();
    ++result.tests;
    const Vertex u = job.local_to_global[t.x];
    const Vertex v = job.local_to_global[t.y];
    const Vertex w = job.local_to_global[t.z];
    ++result.adjacency_probes;
    if (g.has_edge(u, v)) {
      ++result.adjacency_probes;
      if (g.has_edge(v, w)) {
        ++result.adjacency_probes;
        if (g.has_edge(u, w)) ++result.triangles;
      }
    }
  } while (cursor.next());
  return result;
}

std::vector<std::array<Vertex, 3>> list_triangles(const Graph& g) {
  std::vector<std::array<Vertex, 3>> out;
  const AlsPlan plan = build_als_plan(g);
  if (plan.total_tests == 0) return out;
  TestCursor cursor(plan.jobs);
  cursor.seek(0);
  do {
    const AlsJob& job = cursor.job();
    const TestTriple& t = cursor.triple();
    const Vertex u = job.local_to_global[t.x];
    const Vertex v = job.local_to_global[t.y];
    const Vertex w = job.local_to_global[t.z];
    if (g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w)) {
      std::array<Vertex, 3> tri{u, v, w};
      std::sort(tri.begin(), tri.end());
      out.push_back(tri);
    }
  } while (cursor.next());
  return out;
}

bool is_triangle_free(const Graph& g) {
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (const Vertex v : g.neighbors(u))
      if (u < v && intersection_size(g.neighbors(u), g.neighbors(v)) > 0)
        return false;
  return true;
}

std::vector<std::uint64_t> triangles_per_vertex(const Graph& g) {
  std::vector<std::uint64_t> count(g.num_vertices(), 0);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nu = g.neighbors(u);
    for (const Vertex v : nu) {
      if (v <= u) continue;
      const auto nv = g.neighbors(v);
      auto ia = nu.begin();
      auto ib = nv.begin();
      while (ia != nu.end() && ib != nv.end()) {
        if (*ia < *ib)
          ++ia;
        else if (*ib < *ia)
          ++ib;
        else {
          const Vertex w = *ia;
          if (w > v) {  // count each triangle once, at its lowest edge
            ++count[u];
            ++count[v];
            ++count[w];
          }
          ++ia;
          ++ib;
        }
      }
    }
  }
  return count;
}

std::vector<double> clustering_coefficients(const Graph& g) {
  const std::vector<std::uint64_t> tri = triangles_per_vertex(g);
  std::vector<double> cc(g.num_vertices(), 0.0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint64_t d = g.degree(v);
    if (d >= 2)
      cc[v] = 2.0 * static_cast<double>(tri[v]) /
              (static_cast<double>(d) * static_cast<double>(d - 1));
  }
  return cc;
}

double transitivity(const Graph& g) {
  std::uint64_t wedges = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint64_t d = g.degree(v);
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(count_triangles_forward(g)) /
         static_cast<double>(wedges);
}

}  // namespace lgg::core
