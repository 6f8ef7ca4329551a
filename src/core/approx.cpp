#include "core/approx.hpp"

#include <algorithm>
#include <bit>

#include "ingest/orient.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

DoulionResult doulion_estimate(const Graph& g, double p, std::uint64_t seed) {
  LGG_CHECK(p > 0.0 && p <= 1.0, "doulion: p=" << p << " not in (0,1]");
  Xoshiro256 rng(seed);

  // One draw per edge u < v, in g.edges() order, straight off the CSR.
  std::vector<graph::Edge> kept;
  kept.reserve(static_cast<std::size_t>(
      p * static_cast<double>(g.num_edges()) * 1.1));
  const std::size_t n = g.num_vertices();
  for (Vertex u = 0; u < n; ++u)
    for (const Vertex v : g.neighbors(u))
      if (u < v && rng.bernoulli(p)) kept.emplace_back(u, v);

  // Orient each kept edge from the smaller (degree in g, id) endpoint: a
  // strict total order, so every triangle is counted once, and the
  // out-degrees stay bounded as in the DODG.  Kept edges arrive sorted by
  // (u, v), so each source meets its targets in ascending id order and
  // the out-lists come out sorted without a sort.
  const auto source = [&g](Vertex u, Vertex v) {
    const std::size_t du = g.degree(u), dv = g.degree(v);
    return du < dv || (du == dv && u < v) ? u : v;
  };
  ingest::OrientedGraph og;
  og.offsets.assign(n + 1, 0);
  for (const auto& [u, v] : kept) ++og.offsets[source(u, v) + 1];
  for (std::size_t v = 0; v < n; ++v) {
    og.max_out_degree = std::max(og.max_out_degree,
                                 static_cast<std::size_t>(og.offsets[v + 1]));
    og.offsets[v + 1] += og.offsets[v];
  }
  og.targets.resize(kept.size());
  std::vector<std::uint64_t> cursor(og.offsets.begin(), og.offsets.end() - 1);
  for (const auto& [u, v] : kept) {
    const Vertex s = source(u, v);
    og.targets[cursor[s]++] = s == u ? v : u;
  }

  DoulionResult result;
  result.p = p;
  result.kept_edges = kept.size();
  result.sparsified_count = ingest::count_triangles_oriented(og, nullptr);
  result.estimate =
      static_cast<double>(result.sparsified_count) / (p * p * p);
  return result;
}

WedgeCentreIndex::WedgeCentreIndex(const Graph& g) {
  const std::size_t n = g.num_vertices();
  starts_.push_back(0);
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t d = g.degree(v);
    if (d < 2) continue;
    centres_.push_back(v);
    starts_.push_back(starts_.back() + d * (d - 1) / 2);
  }
  const std::uint64_t total = starts_.back();
  if (total == 0) return;
  // About one bucket per centre: buckets = bit_ceil(centres) at most.
  const auto bucket_bits = static_cast<unsigned>(
      std::bit_width(std::bit_ceil(centres_.size())) - 1);
  const auto target_bits = static_cast<unsigned>(std::bit_width(total - 1));
  shift_ = target_bits > bucket_bits ? target_bits - bucket_bits : 0;
  guide_.resize(static_cast<std::size_t>(((total - 1) >> shift_) + 1));
  std::uint32_t i = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    const std::uint64_t first = static_cast<std::uint64_t>(b) << shift_;
    while (starts_[i + 1] <= first) ++i;
    guide_[b] = i;
  }
}

WedgeSampleResult wedge_sampling_estimate(const Graph& g,
                                          std::uint64_t samples,
                                          std::uint64_t seed) {
  LGG_CHECK(samples > 0, "wedge_sampling: need at least one sample");
  Xoshiro256 rng(seed);

  // Centres are drawn proportionally to their C(deg(v), 2) wedges.
  const WedgeCentreIndex index(g);
  WedgeSampleResult result;
  result.samples = samples;
  result.total_wedges = index.total();
  if (result.total_wedges == 0) return result;

  std::uint64_t closed = 0;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const Vertex v = index.centre(rng.uniform(result.total_wedges));
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
