#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bfs_oracle.hpp"
#include "core/hybrid.hpp"
#include "fuzz/spec.hpp"
#include "graph/chunking.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::graph {
namespace {

ChunkingOptions opts_with_budget(std::uint64_t bits) {
  ChunkingOptions o;
  o.shared_mem_bits = bits;
  return o;
}

TEST(ChunkBits, Metrics) {
  EXPECT_EQ(chunk_bits(10, SizeMetric::kAdjacencyMatrix), 100u);
  EXPECT_EQ(chunk_bits(10, SizeMetric::kSutm), 45u);
}

TEST(Chunking, WholeComponentFitsSingleChunk) {
  const Graph g = complete(10);  // S-UTM = 45 bits
  const auto result = split_into_chunks(g, opts_with_budget(1000));
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_TRUE(result.chunks[0].fits_shared);
  EXPECT_EQ(result.chunks[0].vertices.size(), 10u);
  EXPECT_EQ(result.oversized_chunks, 0u);
}

TEST(Chunking, SplitsLongPathIntoFittingChunks) {
  const Graph g = path(100);
  // Budget for ~10 vertices per chunk: C(10,2)=45 bits.
  const auto result = split_into_chunks(g, opts_with_budget(45));
  EXPECT_GT(result.chunks.size(), 5u);
  for (const auto& chunk : result.chunks) {
    EXPECT_TRUE(chunk.fits_shared);
    EXPECT_LE(chunk.bits, 45u);
  }
  EXPECT_EQ(result.oversized_chunks, 0u);
}

TEST(Chunking, ConsecutiveChunksOverlapByOneLevel) {
  const Graph g = path(50);
  const auto result = split_into_chunks(g, opts_with_budget(45));
  for (std::size_t i = 1; i < result.chunks.size(); ++i) {
    EXPECT_EQ(result.chunks[i].first_level, result.chunks[i - 1].last_level)
        << "chunk " << i;
  }
}

TEST(Chunking, EveryVertexCoveredAndLevelsConsistent) {
  const Graph g = erdos_renyi(150, 0.02, 21);
  const auto result = split_into_chunks(g, opts_with_budget(50 * 49 / 2));
  std::vector<std::uint32_t> level(g.num_vertices(), kUnreached);
  for (const LevelDecomposition& levels : result.levels)
    for (std::size_t l = 0; l < levels.num_levels(); ++l)
      for (const Vertex v : levels.level(l))
        level[v] = static_cast<std::uint32_t>(l);
  std::vector<bool> seen(g.num_vertices(), false);
  for (const auto& chunk : result.chunks) {
    for (const Vertex v : chunk.vertices) {
      seen[v] = true;
      ASSERT_NE(level[v], kUnreached);
      EXPECT_GE(level[v], chunk.first_level);
      EXPECT_LE(level[v], chunk.last_level);
    }
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(Chunking, EveryEdgeInsideSomeChunk) {
  // The overlap property must make every edge (and hence every triangle
  // via ALS pairs) visible within at least one chunk.
  const Graph g = erdos_renyi(120, 0.03, 8);
  const auto result = split_into_chunks(g, opts_with_budget(40 * 39 / 2));
  for (const auto& [u, v] : g.edges()) {
    bool covered = false;
    for (const auto& chunk : result.chunks) {
      const auto& vs = chunk.vertices;
      if (std::binary_search(vs.begin(), vs.end(), u) &&
          std::binary_search(vs.begin(), vs.end(), v)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "edge " << u << "-" << v;
  }
}

TEST(Chunking, StarCannotSplitReportsOversized) {
  // A star has 2 BFS levels from the centre; its only 2-level chunk is the
  // whole graph, which exceeds a tiny budget -> one oversized chunk.
  const Graph g = star(64);
  const auto result = split_into_chunks(g, opts_with_budget(10));
  EXPECT_GE(result.oversized_chunks, 1u);
  bool any_oversized = false;
  for (const auto& chunk : result.chunks)
    if (!chunk.fits_shared) any_oversized = true;
  EXPECT_TRUE(any_oversized);
}

TEST(Chunking, MultipleComponentsProcessedSeparately) {
  const Graph g = disjoint_union(path(30), complete(5));
  const auto result = split_into_chunks(g, opts_with_budget(36));  // 9 vertices
  ASSERT_EQ(result.levels.size(), 2u);
  std::vector<std::uint32_t> comps_seen;
  for (const auto& chunk : result.chunks) comps_seen.push_back(chunk.component);
  EXPECT_TRUE(std::find(comps_seen.begin(), comps_seen.end(), 0u) !=
              comps_seen.end());
  EXPECT_TRUE(std::find(comps_seen.begin(), comps_seen.end(), 1u) !=
              comps_seen.end());
}

TEST(Chunking, FragmentationAccountedOnlyForFittingChunks) {
  const Graph g = path(40);
  const ChunkingOptions opts = opts_with_budget(45);
  const auto result = split_into_chunks(g, opts);
  std::uint64_t expect = 0;
  for (const auto& chunk : result.chunks)
    if (chunk.fits_shared) expect += opts.shared_mem_bits - chunk.bits;
  EXPECT_EQ(result.fragmentation_bits, expect);
}

TEST(Chunking, InvalidOptionsThrow) {
  ChunkingOptions bad;
  bad.shared_mem_bits = 0;
  EXPECT_THROW(split_into_chunks(path(5), bad), lgg::Error);
  bad.shared_mem_bits = 100;
  bad.max_start_trials = 0;
  EXPECT_THROW(split_into_chunks(path(5), bad), lgg::Error);
}

TEST(Chunking, AdjacencyMetricUsesSquares) {
  const Graph g = path(20);
  ChunkingOptions o;
  o.shared_mem_bits = 100;  // adj-matrix metric: at most 10 vertices
  o.metric = SizeMetric::kAdjacencyMatrix;
  const auto result = split_into_chunks(g, o);
  for (const auto& chunk : result.chunks)
    EXPECT_LE(chunk.vertices.size() * chunk.vertices.size(),
              o.shared_mem_bits);
}

// ---- the per-root full-split splitter, kept as the oracle -------------
// Algorithm 1 as it was before roots were scored from level sizes: every
// trial root gets a parent-tracking BFS, a LevelDecomposition and a
// greedy split with sorted chunk copies.  split_into_chunks must return
// exactly what this returns.

std::vector<Chunk> reference_greedy_split(const LevelDecomposition& levels,
                                          std::uint32_t component,
                                          const ChunkingOptions& opts) {
  std::vector<Chunk> chunks;
  const std::size_t d = levels.num_levels();
  std::size_t lo = 0;
  while (lo < d) {
    std::size_t hi = lo;
    std::uint64_t count = levels.level(lo).size();
    if (hi + 1 < d) {
      ++hi;
      count += levels.level(hi).size();
    }
    while (hi + 1 < d) {
      const std::uint64_t next_count = count + levels.level(hi + 1).size();
      if (chunk_bits(next_count, opts.metric) > opts.shared_mem_bits) break;
      ++hi;
      count = next_count;
    }
    Chunk chunk;
    chunk.component = component;
    chunk.first_level = static_cast<std::uint32_t>(lo);
    chunk.last_level = static_cast<std::uint32_t>(hi);
    for (std::size_t l = lo; l <= hi; ++l) {
      const auto lvl = levels.level(l);
      chunk.vertices.insert(chunk.vertices.end(), lvl.begin(), lvl.end());
    }
    std::sort(chunk.vertices.begin(), chunk.vertices.end());
    chunk.bits = chunk_bits(chunk.vertices.size(), opts.metric);
    chunk.fits_shared = chunk.bits <= opts.shared_mem_bits;
    chunks.push_back(std::move(chunk));
    if (hi + 1 >= d) break;
    lo = hi;
  }
  return chunks;
}

struct ReferenceSplit {
  std::vector<Chunk> chunks;
  BfsTree tree;
  std::size_t oversized = 0;
  std::uint64_t fragmentation = 0;
};

ReferenceSplit reference_try_split(const Graph& g, Vertex root,
                                   std::uint32_t component,
                                   const ChunkingOptions& opts) {
  ReferenceSplit s;
  s.tree = bfs(g, root);
  s.chunks = reference_greedy_split(levels_of(s.tree), component, opts);
  for (const auto& chunk : s.chunks) {
    if (!chunk.fits_shared)
      ++s.oversized;
    else
      s.fragmentation += opts.shared_mem_bits - chunk.bits;
  }
  return s;
}

struct ReferenceResult {
  std::vector<Chunk> chunks;
  std::vector<BfsTree> trees;
  std::size_t oversized_chunks = 0;
  std::uint64_t fragmentation_bits = 0;
  std::size_t early_breaks = 0;  // components that stopped before the
  std::size_t full_searches = 0;  // last trial root / tried them all
};

ReferenceResult reference_split_into_chunks(const Graph& g,
                                            const ChunkingOptions& opts) {
  ReferenceResult result;
  const Components comps = connected_components(g);
  result.trees.resize(comps.count);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const auto span = comps.vertices_of(c);
    const std::vector<Vertex> members(span.begin(), span.end());
    const std::uint64_t whole = chunk_bits(members.size(), opts.metric);
    if (whole <= opts.shared_mem_bits) {
      result.trees[c] = bfs(g, members.front());
      Chunk chunk;
      chunk.component = c;
      chunk.first_level = 0;
      chunk.last_level = result.trees[c].depth;
      chunk.vertices = members;
      chunk.bits = whole;
      chunk.fits_shared = true;
      result.chunks.push_back(std::move(chunk));
      continue;
    }
    const std::size_t trials = std::min(opts.max_start_trials, members.size());
    ReferenceSplit best;
    bool have_best = false;
    std::size_t t = 0;
    for (; t < trials; ++t) {
      const Vertex root = members[t * members.size() / trials];
      ReferenceSplit s = reference_try_split(g, root, c, opts);
      const bool better =
          !have_best || s.oversized < best.oversized ||
          (s.oversized == best.oversized &&
           s.fragmentation < best.fragmentation);
      if (better) {
        best = std::move(s);
        have_best = true;
      }
      if (have_best && best.oversized == 0) break;
    }
    if (t + 1 < trials) ++result.early_breaks;
    if (t == trials) ++result.full_searches;
    result.trees[c] = std::move(best.tree);
    result.oversized_chunks += best.oversized;
    result.fragmentation_bits += best.fragmentation;
    for (auto& chunk : best.chunks) result.chunks.push_back(std::move(chunk));
  }
  return result;
}

/// Graphs for the oracle comparison: three seeded specs of every fuzz
/// family, a scale-12 R-MAT, and 2,000 disjoint small components.
std::vector<std::pair<std::string, Graph>> oracle_graphs() {
  constexpr std::size_t kPerFamily = 3;
  std::vector<std::pair<std::string, Graph>> graphs;
  std::map<std::string, std::size_t> seen;
  Xoshiro256 rng(20);
  fuzz::SamplerLimits limits;
  limits.max_vertices = 160;
  while (seen.size() < fuzz::spec_families().size() ||
         std::any_of(seen.begin(), seen.end(),
                     [](const auto& kv) { return kv.second < kPerFamily; })) {
    const fuzz::GraphSpec spec = fuzz::sample_spec(rng, limits);
    if (seen[spec.family]++ < kPerFamily)
      graphs.emplace_back(spec.to_string(), spec.build());
  }
  graphs.emplace_back("rmat 12x16 seed=5", rmat(12, 16, 5));

  // Paths with chords and isolated vertices of 1..12 vertices each.
  std::vector<Edge> edges;
  Vertex next = 0;
  Xoshiro256 shape(7);
  for (std::size_t c = 0; c < 2000; ++c) {
    const auto size = static_cast<Vertex>(1 + c % 12);
    for (Vertex i = 1; i < size; ++i) edges.emplace_back(next + i - 1, next + i);
    for (Vertex i = 2; i < size; ++i)
      if (shape.next() % 3 == 0)
        edges.emplace_back(next + i,
                           next + static_cast<Vertex>(shape.next() % (i - 1)));
    next += size;
  }
  graphs.emplace_back("2000 small components", Graph::from_edges(next, edges));
  return graphs;
}

core::ChunkWork reference_work(const Chunk& chunk, const BfsTree& tree) {
  return core::build_chunk_work(chunk, levels_of(tree));
}

TEST(ChunkingOracle, IdenticalToPerRootFullSplit) {
  std::size_t early_breaks = 0;
  std::size_t full_searches = 0;
  for (const auto& [name, g] : oracle_graphs()) {
    // Budgets from "every component oversized" to "every component fits",
    // under both size metrics.
    for (const std::uint64_t budget : {1ull, 10ull, 45ull, 300ull, 1225ull,
                                       16ull * 1024 * 8}) {
      for (const SizeMetric metric :
           {SizeMetric::kSutm, SizeMetric::kAdjacencyMatrix}) {
        SCOPED_TRACE(name + " budget=" + std::to_string(budget) + " metric=" +
                     std::to_string(static_cast<int>(metric)));
        ChunkingOptions opts;
        opts.shared_mem_bits = budget;
        opts.metric = metric;
        const ChunkingResult got = split_into_chunks(g, opts);
        const ReferenceResult want = reference_split_into_chunks(g, opts);
        early_breaks += want.early_breaks;
        full_searches += want.full_searches;

        EXPECT_EQ(got.oversized_chunks, want.oversized_chunks);
        EXPECT_EQ(got.fragmentation_bits, want.fragmentation_bits);
        ASSERT_EQ(got.levels.size(), want.trees.size());
        for (std::size_t c = 0; c < want.trees.size(); ++c)
          ASSERT_EQ(got.levels[c].levels(), levels_of(want.trees[c]).levels())
              << "component " << c;
        ASSERT_EQ(got.chunks.size(), want.chunks.size());
        std::uint64_t got_total = 0;
        std::uint64_t want_total = 0;
        for (std::size_t i = 0; i < want.chunks.size(); ++i) {
          const Chunk& a = got.chunks[i];
          const Chunk& b = want.chunks[i];
          SCOPED_TRACE("chunk " + std::to_string(i));
          EXPECT_EQ(a.component, b.component);
          EXPECT_EQ(a.first_level, b.first_level);
          EXPECT_EQ(a.last_level, b.last_level);
          EXPECT_EQ(a.vertices, b.vertices);
          EXPECT_EQ(a.bits, b.bits);
          EXPECT_EQ(a.fits_shared, b.fits_shared);
          const std::uint64_t got_tests =
              core::build_chunk_work(a, got.levels[a.component]).tests;
          const std::uint64_t want_tests =
              reference_work(b, want.trees[b.component]).tests;
          EXPECT_EQ(got_tests, want_tests);
          got_total += got_tests;
          want_total += want_tests;
        }
        EXPECT_EQ(got_total, want_total);
      }
    }
  }
  // Both sides of the "cannot improve Eq. 5" break were exercised.
  EXPECT_GT(early_breaks, 0u);
  EXPECT_GT(full_searches, 0u);
}

TEST(ChunkingOracle, PreparedPlanTestsMatchOracleOnRmat) {
  const Graph g = rmat(12, 16, 5);
  const core::AlsPrecomputed plan = core::precompute_als(g);
  ChunkingOptions opts;
  opts.shared_mem_bits = plan.shared_mem_bits;
  opts.metric = plan.metric;
  const ReferenceResult want = reference_split_into_chunks(g, opts);
  ASSERT_EQ(plan.chunk_tests.size(), want.chunks.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < want.chunks.size(); ++i) {
    const std::uint64_t tests =
        reference_work(want.chunks[i], want.trees[want.chunks[i].component])
            .tests;
    EXPECT_EQ(plan.chunk_tests[i], tests) << "chunk " << i;
    total += tests;
  }
  EXPECT_EQ(plan.total_tests, total);
}

}  // namespace
}  // namespace lgg::graph
