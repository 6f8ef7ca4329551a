// Degree-ordered orientation (DODG) — an ingest-time transform that turns
// the undirected CSR into a DAG: each undirected edge {u, v} is kept only
// from the endpoint of smaller (degree, id) toward the larger.  Every
// triangle then survives as exactly one directed wedge u -> v, u -> w with
// v -> w, so triangle/k-clique counters intersect *out*-neighbourhoods
// only — half the adjacency, and with out-degrees bounded by O(sqrt(2m))
// instead of the raw maximum degree (Polak, arXiv:1503.00576; the
// RapidsAtHKUST pre-processing pipeline uses the same transform).
//
// The oriented graph keeps the original vertex ids (no relabelling), so
// results map back without a permutation, and the structure is a pure
// function of the input graph — deterministic at any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace lgg::ingest {

/// CSR over the kept (low rank -> high rank) arcs.  Out-neighbour lists
/// are sorted by vertex id (a layout contract: ingest digests and tests
/// pin these arrays), whatever intersection a counter uses.
struct OrientedGraph {
  std::vector<std::uint64_t> offsets;   // size n+1
  std::vector<graph::Vertex> targets;   // size m (one arc per edge)
  std::size_t max_out_degree = 0;

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::size_t num_arcs() const noexcept {
    return targets.size();
  }
  [[nodiscard]] std::span<const graph::Vertex> out_neighbors(
      graph::Vertex v) const noexcept {
    return {targets.data() + offsets[v],
            static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
  }
};

/// Build the degree-ordered orientation of g.  Work is sharded over
/// `pool` when given (nullptr = serial); the result is identical either
/// way.
OrientedGraph orient_by_degree(const graph::Graph& g,
                               ThreadPool* pool = nullptr);

/// Exact triangle count over the oriented graph: for every arc u -> v,
/// |out(u) ∩ out(v)|, by marking out(u) in a per-shard byte array and
/// probing each out(v).  Equals the undirected triangle count of the
/// source graph, identically at any thread count (a u64 sum).
std::uint64_t count_triangles_oriented(const OrientedGraph& og,
                                       ThreadPool* pool = nullptr);

}  // namespace lgg::ingest
