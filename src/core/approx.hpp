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
/// exactly and rescale by 1/p^3.  The Bernoulli pass runs in g.edges()
/// order; the kept edges are oriented into an ingest::OrientedGraph and
/// counted by the host mark-array counter (the count equals
/// count_triangles_forward on the sparsified graph).
DoulionResult doulion_estimate(const graph::Graph& g, double p,
                               std::uint64_t seed);

struct WedgeSampleResult {
  double estimate = 0.0;      // estimated triangle count
  double closed_fraction = 0.0;
  std::uint64_t total_wedges = 0;
  std::uint64_t samples = 0;
};

/// Wedge-centre lookup for uniform wedge sampling.  Centre v owns the
/// C(deg(v), 2) targets [cum(v), cum(v+1)) of the cumulative wedge table;
/// centre(t) returns the v owning target t — what std::upper_bound over
/// that table returns, minus one — through a guide table: the target's
/// high bits pick a bucket holding the centre of the bucket's first
/// target, then a short forward scan over the centres with wedges finds
/// t's owner.  Both tables are built in O(n).
class WedgeCentreIndex {
 public:
  explicit WedgeCentreIndex(const graph::Graph& g);

  /// Wedges over all centres (the table's last entry).
  [[nodiscard]] std::uint64_t total() const noexcept { return starts_.back(); }

  /// Owner of target t; requires t < total().
  [[nodiscard]] graph::Vertex centre(std::uint64_t t) const noexcept {
    std::size_t i = guide_[t >> shift_];
    while (starts_[i + 1] <= t) ++i;
    return centres_[i];
  }

 private:
  std::vector<graph::Vertex> centres_;  // vertices with >= 1 wedge, by id
  std::vector<std::uint64_t> starts_;   // first target per centre, + total
  std::vector<std::uint32_t> guide_;    // bucket -> centre index
  unsigned shift_ = 0;                  // target >> shift_ = bucket
};

/// Uniform wedge sampling: triangles ≈ (closed wedges) / 3 =
/// wedge_count * closed_fraction / 3.
WedgeSampleResult wedge_sampling_estimate(const graph::Graph& g,
                                          std::uint64_t samples,
                                          std::uint64_t seed);

}  // namespace lgg::core
