#include "core/kcount.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "combi/combinadic.hpp"
#include "graph/bfs.hpp"
#include "util/error.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

namespace {

std::uint64_t cliques_rec(const Graph& g, const std::vector<Vertex>& cands,
                          std::uint32_t need) {
  if (need == 0) return 1;
  if (cands.size() < need) return 0;
  if (need == 1) return cands.size();
  std::uint64_t total = 0;
  std::vector<Vertex> next;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    next.clear();
    for (std::size_t j = i + 1; j < cands.size(); ++j)
      if (g.has_edge(cands[i], cands[j])) next.push_back(cands[j]);
    total += cliques_rec(g, next, need - 1);
  }
  return total;
}

/// Enumerate, for every component and every window of two adjacent BFS
/// levels, each k-combination of window vertices whose minimum element
/// lies in the window's first level; invoke `test` with the global vertex
/// ids.  This is the Section VIII machinery behind the paper-style
/// counter.
void for_each_window_combination(
    const Graph& g, std::uint32_t k,
    const std::function<void(std::span<const Vertex>)>& test) {
  for (const graph::LevelDecomposition& levels : graph::component_levels(g)) {
    const std::size_t d = levels.num_levels();

    std::vector<Vertex> window;
    std::vector<std::uint32_t> suffix(k > 0 ? k - 1 : 0);
    std::vector<Vertex> combo(k);
    for (std::size_t i = 0; i < d; ++i) {
      window.clear();
      const std::size_t last = std::min(d - 1, i + 1);
      for (std::size_t l = i; l <= last; ++l) {
        const auto lvl = levels.level(l);
        window.insert(window.end(), lvl.begin(), lvl.end());
      }
      const auto s = static_cast<std::uint32_t>(window.size());
      if (s < k) continue;
      const auto a = static_cast<std::uint32_t>(levels.level(i).size());
      const std::uint32_t x_max = std::min(a, s - k + 1);

      for (std::uint32_t x = 0; x < x_max; ++x) {
        if (k == 1) {
          combo[0] = window[x];
          test(combo);
          continue;
        }
        // (k-1)-combinations of (x, s), walked by successor over [0, s):
        // start at (x+1, ..., x+k-1); all successors stay above x.
        for (std::uint32_t j = 0; j + 1 < k; ++j) suffix[j] = x + 1 + j;
        for (;;) {
          combo[0] = window[x];
          for (std::uint32_t j = 0; j + 1 < k; ++j)
            combo[j + 1] = window[suffix[j]];
          test(combo);
          if (!combi::next_combination(suffix, s)) break;
        }
      }
    }
  }
}

bool is_clique(const Graph& g, std::span<const Vertex> vs) {
  for (std::size_t i = 0; i < vs.size(); ++i)
    for (std::size_t j = i + 1; j < vs.size(); ++j)
      if (!g.has_edge(vs[i], vs[j])) return false;
  return true;
}

}  // namespace

std::uint64_t count_kcliques(const Graph& g, std::uint32_t k) {
  LGG_CHECK(k >= 1, "count_kcliques: k must be >= 1");
  if (k == 1) return g.num_vertices();
  std::uint64_t total = 0;
  std::vector<Vertex> cands;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    cands.clear();
    for (const Vertex u : g.neighbors(v))
      if (u > v) cands.push_back(u);
    total += cliques_rec(g, cands, k - 1);
  }
  return total;
}

std::uint64_t count_kcliques_als(const Graph& g, std::uint32_t k) {
  LGG_CHECK(k >= 1, "count_kcliques_als: k must be >= 1");
  std::uint64_t total = 0;
  for_each_window_combination(g, k, [&](std::span<const Vertex> vs) {
    if (is_clique(g, vs)) ++total;
  });
  return total;
}

}  // namespace lgg::core
