// Approximate triangle counting — the techniques the paper builds on and
// cites for context, implemented as extensions:
//
//  * DOULION (Tsourakakis et al., KDD'09 — paper reference [16]):
//    keep each edge with probability p, count triangles exactly in the
//    sparsified graph, return count / p^3.  Unbiased; variance shrinks
//    as p^3 * triangle count grows.
//
//  * Wedge sampling: sample wedges (paths of length 2) uniformly, measure
//    the closed fraction, scale by the wedge count / 3.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace lgg::core {

struct DoulionResult {
  double estimate = 0.0;            // unbiased estimate of the count
  std::uint64_t sparsified_count = 0;  // triangles in the sampled graph
  std::uint64_t kept_edges = 0;
  double p = 1.0;
};

/// DOULION: sparsify with keep-probability p (0 < p <= 1), then count
/// exactly (forward algorithm) and rescale by 1/p^3.
DoulionResult doulion_estimate(const graph::Graph& g, double p,
                               std::uint64_t seed);

struct WedgeSampleResult {
  double estimate = 0.0;      // estimated triangle count
  double closed_fraction = 0.0;
  std::uint64_t total_wedges = 0;
  std::uint64_t samples = 0;
};

/// Uniform wedge sampling: triangles ≈ (closed wedges) / 3 =
/// wedge_count * closed_fraction / 3.
WedgeSampleResult wedge_sampling_estimate(const graph::Graph& g,
                                          std::uint64_t samples,
                                          std::uint64_t seed);

}  // namespace lgg::core
