#include "ingest/orient.hpp"

#include <algorithm>
#include <atomic>

namespace lgg::ingest {
namespace {

using graph::Graph;
using graph::Vertex;

/// Keep the arc v -> w?  Orient from smaller (degree, id) to larger, the
/// tie-break making the relation a strict total order (a DAG).
bool keeps_arc(const Graph& g, Vertex v, Vertex w) {
  const std::size_t dv = g.degree(v);
  const std::size_t dw = g.degree(w);
  return dv < dw || (dv == dw && v < w);
}

template <class Fn>
void over_vertices(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (pool == nullptr) {
    fn(std::size_t{0}, n);
    return;
  }
  // Dynamic claiming: per-vertex cost follows the (skewed) degree
  // distribution.
  pool->parallel_for_dynamic(n, fn, 64, 16);
}

}  // namespace

OrientedGraph orient_by_degree(const Graph& g, ThreadPool* pool) {
  const std::size_t n = g.num_vertices();
  OrientedGraph og;
  og.offsets.assign(n + 1, 0);

  over_vertices(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      std::uint64_t kept = 0;
      for (const Vertex w : g.neighbors(static_cast<Vertex>(v)))
        if (keeps_arc(g, static_cast<Vertex>(v), w)) ++kept;
      og.offsets[v + 1] = kept;
    }
  });
  for (std::size_t v = 0; v < n; ++v) {
    og.max_out_degree =
        std::max(og.max_out_degree, static_cast<std::size_t>(og.offsets[v + 1]));
    og.offsets[v + 1] += og.offsets[v];
  }

  og.targets.resize(og.offsets[n]);
  over_vertices(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      std::uint64_t w_at = og.offsets[v];
      // The undirected list is sorted by id; the kept subsequence keeps
      // that order, so out-lists come out merge-ready without a sort.
      for (const Vertex w : g.neighbors(static_cast<Vertex>(v)))
        if (keeps_arc(g, static_cast<Vertex>(v), w)) og.targets[w_at++] = w;
    }
  });
  return og;
}

std::uint64_t count_triangles_oriented(const OrientedGraph& og,
                                       ThreadPool* pool) {
  const std::size_t n = og.num_vertices();
  std::atomic<std::uint64_t> total{0};
  over_vertices(pool, n, [&](std::size_t begin, std::size_t end) {
    // |out(u) ∩ out(v)| by mark array: mark out(u) once, then probe every
    // out(v) with one load per element and no data-dependent branch.
    std::vector<std::uint8_t> mark(n, 0);
    std::uint64_t local = 0;
    for (std::size_t u = begin; u < end; ++u) {
      const auto out_u = og.out_neighbors(static_cast<Vertex>(u));
      if (out_u.size() < 2) continue;  // a triangle needs two out-arcs of u
      for (const Vertex v : out_u) mark[v] = 1;
      for (const Vertex v : out_u)
        for (const Vertex w : og.out_neighbors(v)) local += mark[w];
      for (const Vertex v : out_u) mark[v] = 0;
    }
    // u64 addition is associative: the total is chunking-independent.
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

}  // namespace lgg::ingest
