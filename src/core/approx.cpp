#include "core/approx.hpp"

#include <algorithm>

#include "core/triangle_cpu.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

DoulionResult doulion_estimate(const Graph& g, double p, std::uint64_t seed) {
  LGG_CHECK(p > 0.0 && p <= 1.0, "doulion: p=" << p << " not in (0,1]");
  Xoshiro256 rng(seed);

  std::vector<graph::Edge> kept;
  kept.reserve(static_cast<std::size_t>(
      p * static_cast<double>(g.num_edges()) * 1.1));
  for (const auto& e : g.edges())
    if (rng.bernoulli(p)) kept.push_back(e);

  const Graph sparse = Graph::from_edges(g.num_vertices(), kept);
  DoulionResult result;
  result.p = p;
  result.kept_edges = kept.size();
  result.sparsified_count = count_triangles_forward(sparse);
  result.estimate =
      static_cast<double>(result.sparsified_count) / (p * p * p);
  return result;
}

WedgeSampleResult wedge_sampling_estimate(const Graph& g,
                                          std::uint64_t samples,
                                          std::uint64_t seed) {
  LGG_CHECK(samples > 0, "wedge_sampling: need at least one sample");
  Xoshiro256 rng(seed);

  // Wedge count per centre v: C(deg(v), 2); cumulative table for sampling
  // centres proportionally.
  std::vector<std::uint64_t> cumulative(g.num_vertices() + 1, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint64_t d = g.degree(v);
    cumulative[v + 1] = cumulative[v] + d * (d - 1) / 2;
  }
  WedgeSampleResult result;
  result.samples = samples;
  result.total_wedges = cumulative.back();
  if (result.total_wedges == 0) return result;

  std::uint64_t closed = 0;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const std::uint64_t target = rng.uniform(result.total_wedges);
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), target);
    const auto v = static_cast<Vertex>(it - cumulative.begin() - 1);
    const auto nbrs = g.neighbors(v);
    // Uniform unordered pair of distinct neighbours.
    const std::uint64_t d = nbrs.size();
    std::uint64_t i = rng.uniform(d);
    std::uint64_t j = rng.uniform(d - 1);
    if (j >= i) ++j;
    if (g.has_edge(nbrs[i], nbrs[j])) ++closed;
  }
  result.closed_fraction =
      static_cast<double>(closed) / static_cast<double>(samples);
  result.estimate = result.closed_fraction *
                    static_cast<double>(result.total_wedges) / 3.0;
  return result;
}

}  // namespace lgg::core
