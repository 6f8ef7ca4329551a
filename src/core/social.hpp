// Social-network analyses built on the triangle machinery (paper Fig. 2:
// "friends of friends tend to be friends").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace lgg::core {

struct FriendSuggestion {
  graph::Vertex candidate = 0;
  std::uint64_t mutual_friends = 0;
};

/// Friend suggestions for `v`: non-neighbours at distance two, ranked by
/// the number of mutual friends (descending, ties by id), truncated to
/// `limit`.  This is the paper's Fig. 2 use case.
std::vector<FriendSuggestion> suggest_friends(const graph::Graph& g,
                                              graph::Vertex v,
                                              std::size_t limit = 10);

struct OpenTriad {
  graph::Vertex u = 0;
  graph::Vertex v = 0;
  std::uint64_t common = 0;
};

/// The strongest open triads in the graph: non-adjacent pairs with the
/// most common neighbours (the pairs most likely to close into triangles).
std::vector<OpenTriad> top_open_triads(const graph::Graph& g,
                                       std::size_t limit = 10);

}  // namespace lgg::core
