#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/social.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace lgg::core {
namespace {

using graph::Graph;
using graph::Vertex;

/// Common neighbours of u and v by sorted-list intersection (the oracle).
std::uint64_t common_neighbors(const Graph& g, Vertex u, Vertex v) {
  const auto a = g.neighbors(u);
  const auto b = g.neighbors(v);
  std::vector<Vertex> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return both.size();
}

TEST(CommonNeighbors, Basics) {
  // 0 and 1 share neighbours 2 and 3, and so do 2 and 3: each pair's
  // friend suggestion carries its common-neighbour count.
  const Graph g = Graph::from_edges(
      4, std::vector<graph::Edge>{{0, 2}, {0, 3}, {1, 2}, {1, 3}});
  for (const auto& [v, want] : {std::pair<Vertex, Vertex>{0, 1}, {2, 3}}) {
    const auto s = suggest_friends(g, v);
    ASSERT_EQ(s.size(), 1u) << v;
    EXPECT_EQ(s[0].candidate, want);
    EXPECT_EQ(s[0].mutual_friends, 2u);
    EXPECT_EQ(s[0].mutual_friends, common_neighbors(g, v, want));
  }
  EXPECT_EQ(common_neighbors(g, 0, 2), 0u);
  EXPECT_THROW(suggest_friends(g, 9), lgg::Error);
}

TEST(SuggestFriends, PaperFigure2Scenario) {
  // The Fig. 2 triangle-closure: v knows a and b; a and b both know c;
  // c is the natural suggestion for v.
  const Graph g = Graph::from_edges(
      4, std::vector<graph::Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto suggestions = suggest_friends(g, 0);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions[0].candidate, 3u);
  EXPECT_EQ(suggestions[0].mutual_friends, 2u);
}

TEST(SuggestFriends, ExcludesSelfAndExistingFriends) {
  const Graph g = graph::complete(5);
  EXPECT_TRUE(suggest_friends(g, 0).empty());  // already friends with all
}

TEST(SuggestFriends, RankedByMutualCountThenId) {
  // v=0 friends with 1,2,3.  Candidate 4 shares {1,2}; candidate 5 shares
  // {3}; candidate 6 shares {1,2} too -> order: 4, 6, 5.
  const Graph g = Graph::from_edges(
      7, std::vector<graph::Edge>{{0, 1}, {0, 2}, {0, 3}, {4, 1}, {4, 2},
                                  {5, 3}, {6, 1}, {6, 2}});
  const auto s = suggest_friends(g, 0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].candidate, 4u);
  EXPECT_EQ(s[1].candidate, 6u);
  EXPECT_EQ(s[2].candidate, 5u);
  const auto top1 = suggest_friends(g, 0, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].candidate, 4u);
}

TEST(OpenTriads, CompleteGraphHasNone) {
  EXPECT_TRUE(top_open_triads(graph::complete(6)).empty());
}

TEST(OpenTriads, StarCenterPairs) {
  // In a star, every leaf pair is an open triad with 1 common neighbour.
  const auto triads = top_open_triads(graph::star(5), 100);
  EXPECT_EQ(triads.size(), 6u);  // C(4,2) leaf pairs
  for (const auto& t : triads) {
    EXPECT_EQ(t.common, 1u);
    EXPECT_LT(t.u, t.v);
    EXPECT_GT(t.u, 0u);  // centre is adjacent to everyone
  }
}

TEST(OpenTriads, StrongestPairFirstAndLimited) {
  // Pair (0,1) shares 3 neighbours; pair (0,5) shares 1.
  const Graph g = Graph::from_edges(
      7, std::vector<graph::Edge>{{0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4},
                                  {1, 4}, {0, 6}, {5, 6}});
  const auto triads = top_open_triads(g, 2);
  ASSERT_EQ(triads.size(), 2u);
  EXPECT_EQ(triads[0].u, 0u);
  EXPECT_EQ(triads[0].v, 1u);
  EXPECT_EQ(triads[0].common, 3u);
  EXPECT_GE(triads[0].common, triads[1].common);
}

TEST(OpenTriads, ConsistentWithCommonNeighbors) {
  const Graph g = graph::erdos_renyi(30, 0.15, 21);
  for (const auto& t : top_open_triads(g, 20)) {
    EXPECT_FALSE(g.has_edge(t.u, t.v));
    EXPECT_EQ(common_neighbors(g, t.u, t.v), t.common);
  }
}

}  // namespace
}  // namespace lgg::core
