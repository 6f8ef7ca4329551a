#include "core/social.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"

namespace lgg::core {

using graph::Graph;
using graph::Vertex;

std::vector<FriendSuggestion> suggest_friends(const Graph& g, Vertex v,
                                              std::size_t limit) {
  LGG_CHECK(v < g.num_vertices(), "suggest_friends: vertex out of range");
  // Count 2-hop paths: mutual friends with each distance-2 vertex.
  std::unordered_map<Vertex, std::uint64_t> mutual;
  for (const Vertex friend_v : g.neighbors(v))
    for (const Vertex fof : g.neighbors(friend_v))
      if (fof != v && !g.has_edge(v, fof)) ++mutual[fof];

  std::vector<FriendSuggestion> out;
  out.reserve(mutual.size());
  for (const auto& [candidate, count] : mutual)
    out.push_back({candidate, count});
  std::sort(out.begin(), out.end(),
            [](const FriendSuggestion& x, const FriendSuggestion& y) {
              return x.mutual_friends != y.mutual_friends
                         ? x.mutual_friends > y.mutual_friends
                         : x.candidate < y.candidate;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

std::vector<OpenTriad> top_open_triads(const Graph& g, std::size_t limit) {
  // For every wedge u - w - v with u < v and (u, v) not an edge, credit
  // the pair; then rank.
  std::unordered_map<std::uint64_t, std::uint64_t> pair_count;
  for (Vertex w = 0; w < g.num_vertices(); ++w) {
    const auto nbrs = g.neighbors(w);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const Vertex u = nbrs[i], v = nbrs[j];
        if (!g.has_edge(u, v)) {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(u) << 32) | v;
          ++pair_count[key];
        }
      }
  }
  std::vector<OpenTriad> out;
  out.reserve(pair_count.size());
  for (const auto& [key, count] : pair_count)
    out.push_back({static_cast<Vertex>(key >> 32),
                   static_cast<Vertex>(key & 0xFFFFFFFFu), count});
  std::sort(out.begin(), out.end(), [](const OpenTriad& x, const OpenTriad& y) {
    if (x.common != y.common) return x.common > y.common;
    if (x.u != y.u) return x.u < y.u;
    return x.v < y.v;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace lgg::core
