#include "graph/chunking.hpp"

#include <algorithm>
#include <span>

#include "util/error.hpp"

namespace lgg::graph {

std::uint64_t chunk_bits(std::uint64_t c, SizeMetric metric) noexcept {
  switch (metric) {
    case SizeMetric::kAdjacencyMatrix:
      return c * c;
    case SizeMetric::kSutm:
      return c * (c - 1) / 2;
  }
  return c * c;  // unreachable
}

namespace {

/// One chunk's run of levels [lo, hi] and its vertex count.
struct LevelRun {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::uint64_t count = 0;
};

/// Greedy split of one component's levels into maximal runs of
/// consecutive levels whose footprint fits the budget; adjacent runs share
/// one boundary level.  A run that exceeds the budget even as a single
/// level-pair is emitted anyway (it will live in global memory).  Levels
/// are disjoint, so a run's vertex count is the sum of its level sizes and
/// the split depends on those sizes alone.
std::vector<LevelRun> greedy_split(std::span<const std::size_t> sizes,
                                   const ChunkingOptions& opts) {
  std::vector<LevelRun> runs;
  const std::size_t d = sizes.size();
  LGG_ASSERT(d > 0);

  std::size_t lo = 0;
  while (lo < d) {
    // Take at least the pair (lo, lo+1) — ALS processing needs two
    // consecutive levels — even if that pair alone exceeds the budget;
    // then extend while the union still fits.
    std::size_t hi = lo;
    std::uint64_t count = sizes[lo];
    if (hi + 1 < d) {
      ++hi;
      count += sizes[hi];
    }
    while (hi + 1 < d) {
      const std::uint64_t next_count = count + sizes[hi + 1];
      if (chunk_bits(next_count, opts.metric) > opts.shared_mem_bits) break;
      ++hi;
      count = next_count;
    }
    runs.push_back({lo, hi, count});

    if (hi + 1 >= d) break;
    lo = hi;  // overlap: next chunk starts at this chunk's last level
  }
  return runs;
}

/// Eq. 5 value of a split, then its fragmentation (the tie-break).
struct Score {
  std::size_t oversized = 0;
  std::uint64_t fragmentation = 0;

  [[nodiscard]] bool better_than(const Score& o) const noexcept {
    return oversized < o.oversized ||
           (oversized == o.oversized && fragmentation < o.fragmentation);
  }
};

Score score(std::span<const LevelRun> runs, const ChunkingOptions& opts) {
  Score s;
  for (const LevelRun& run : runs) {
    const std::uint64_t bits = chunk_bits(run.count, opts.metric);
    if (bits > opts.shared_mem_bits)
      ++s.oversized;
    else
      s.fragmentation += opts.shared_mem_bits - bits;
  }
  return s;
}

/// Appends the chunks of `runs` to `out`.  Each chunk takes its levels'
/// vertices in `members` order, so it is ascending without a sort; a
/// boundary level also feeds the next run's chunk.
void append_chunks(std::span<const LevelRun> runs,
                   std::span<const Vertex> members, const LevelWalker& walker,
                   std::uint32_t component, const ChunkingOptions& opts,
                   std::vector<Chunk>& out) {
  std::vector<std::size_t> run_of_level(runs.back().hi + 1, 0);
  const std::size_t first = out.size();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    // A boundary level (run r's lo) stays with run r - 1.
    for (std::size_t l = runs[r].lo + 1; l <= runs[r].hi; ++l)
      run_of_level[l] = r;
    Chunk chunk;
    chunk.component = component;
    chunk.first_level = static_cast<std::uint32_t>(runs[r].lo);
    chunk.last_level = static_cast<std::uint32_t>(runs[r].hi);
    chunk.vertices.reserve(runs[r].count);
    chunk.bits = chunk_bits(runs[r].count, opts.metric);
    chunk.fits_shared = chunk.bits <= opts.shared_mem_bits;
    out.push_back(std::move(chunk));
  }
  for (const Vertex v : members) {
    const std::uint32_t l = walker.level_of(v);
    const std::size_t r = run_of_level[l];
    out[first + r].vertices.push_back(v);
    if (r + 1 < runs.size() && runs[r].hi == l)
      out[first + r + 1].vertices.push_back(v);
  }
}

}  // namespace

ChunkingResult split_into_chunks(const Graph& g, const ChunkingOptions& opts) {
  LGG_CHECK(opts.shared_mem_bits > 0, "shared_mem_bits must be positive");
  LGG_CHECK(opts.max_start_trials > 0, "max_start_trials must be positive");

  ChunkingResult result;
  const Components comps = connected_components(g);
  result.levels.reserve(comps.count);
  LevelWalker walker(g);

  for (std::uint32_t c = 0; c < comps.count; ++c) {
    const std::span<const Vertex> members = comps.vertices_of(c);
    LGG_ASSERT(!members.empty());

    // Whole-component footprint check first (the "CCi fits" fast path).
    const std::uint64_t whole = chunk_bits(members.size(), opts.metric);
    if (whole <= opts.shared_mem_bits) {
      walker.walk(members.front(), members);
      result.levels.push_back(walker.decomposition(members));
      Chunk chunk;
      chunk.component = c;
      chunk.first_level = 0;
      chunk.last_level =
          static_cast<std::uint32_t>(result.levels.back().num_levels() - 1);
      chunk.vertices.assign(members.begin(), members.end());
      chunk.bits = whole;
      chunk.fits_shared = true;
      result.chunks.push_back(std::move(chunk));
      continue;
    }

    // Try several BFS roots, keep the best split per Eq. 5 + fragmentation.
    // A trial needs only its level sizes; chunks are cut for the winner.
    const std::size_t trials = std::min(opts.max_start_trials, members.size());
    Vertex best_root = members.front();
    Vertex walked = best_root;
    std::vector<LevelRun> best_runs;
    Score best;
    for (std::size_t t = 0; t < trials; ++t) {
      // Spread trial roots across the component deterministically.
      walked = members[t * members.size() / trials];
      std::vector<LevelRun> runs =
          greedy_split(walker.walk(walked, members), opts);
      const Score s = score(runs, opts);
      if (t == 0 || s.better_than(best)) {
        best = s;
        best_root = walked;
        best_runs = std::move(runs);
      }
      if (best.oversized == 0) break;  // cannot improve Eq. 5
    }
    if (walked != best_root) walker.walk(best_root, members);
    result.levels.push_back(walker.decomposition(members));
    result.oversized_chunks += best.oversized;
    result.fragmentation_bits += best.fragmentation;
    append_chunks(best_runs, members, walker, c, opts, result.chunks);
  }
  return result;
}

}  // namespace lgg::graph
