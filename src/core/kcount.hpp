// k-clique counting (paper Section III, extending [5]).  An efficient
// direct oracle plus a paper-style counter that walks two-level BFS
// windows with combination generation, so tests can prove the
// level-restriction argument: a k-clique spans at most TWO adjacent BFS
// levels (mutually adjacent vertices differ by at most one level) — the
// same windowing as triangles.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace lgg::core {

/// Number of k-cliques, by ordered backtracking over sorted neighbour
/// lists (exact, efficient oracle).  k >= 1; k == 3 equals the triangle
/// count.
std::uint64_t count_kcliques(const graph::Graph& g, std::uint32_t k);

/// Paper-style k-clique counter: per component, per adjacent level set,
/// enumerate k-combinations with >= 1 vertex in the first level (plus the
/// within-last-level combinations), testing all C(k,2) edges.
/// Exponential in window size — intended for the correctness argument and
/// modest graphs.
std::uint64_t count_kcliques_als(const graph::Graph& g, std::uint32_t k);

}  // namespace lgg::core
