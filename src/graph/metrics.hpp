// Structural graph metrics used by the examples and benches to
// characterise workloads: degree statistics, density, k-core
// decomposition (degeneracy), and a double-sweep diameter lower bound.
// The k-core machinery also gives the standard preprocessing that bounds
// triangle work (every triangle lives inside the 2-core).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace lgg::graph {

struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
  double median = 0.0;
  /// histogram[d] = number of vertices with degree d (size max+1).
  std::vector<std::uint64_t> histogram;
};

DegreeStats degree_stats(const Graph& g);

/// Edge density: m / C(n, 2); 0 for n < 2.
double density(const Graph& g);

struct CoreDecomposition {
  /// core[v] = largest k such that v belongs to the k-core.
  std::vector<std::uint32_t> core;
  /// Graph degeneracy: max core number.
  std::uint32_t degeneracy = 0;
  /// A degeneracy ordering (vertices in removal order; each vertex has at
  /// most `degeneracy` neighbours later in the order).
  std::vector<Vertex> order;
};

/// Matula–Beck peeling in O(n + m) with bucket queues.
CoreDecomposition core_decomposition(const Graph& g);

/// Lower bound on the diameter by a BFS double sweep from `seed_vertex`
/// (standard technique; exact on trees).  Returns 0 for empty graphs;
/// only the component of seed_vertex is examined.
std::uint32_t diameter_double_sweep(const Graph& g, Vertex seed_vertex = 0);

/// Degree assortativity (Pearson correlation of endpoint degrees over
/// edges); 0 for graphs with < 2 edges or zero variance.
double degree_assortativity(const Graph& g);

}  // namespace lgg::graph
