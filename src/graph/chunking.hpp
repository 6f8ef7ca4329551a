// Algorithm 1 of the paper: CPU preprocessing that splits the input graph
// into chunks of consecutive BFS levels, per connected component, sized
// against the GPU shared-memory budget.
//
// A chunk is a run of consecutive BFS levels [first_level, last_level] of
// one component.  Consecutive chunks of the same component OVERLAP by one
// level, so that every adjacent level set (and hence every triangle) is
// fully contained in some chunk — this is the "shared levels" property the
// paper exploits in Section X-A and which forces the redundant layout of
// Fig. 9.
//
// The paper's objective (Eq. 5): over candidate BFS start vertices, choose
// the split minimising the number of chunks that do NOT fit in shared
// memory; ties are broken by least shared-memory fragmentation.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace lgg::graph {

/// How a chunk's memory footprint is computed from its vertex count c.
enum class SizeMetric {
  kAdjacencyMatrix,  // c^2 bits           (paper Eq. 1)
  kSutm,             // c(c-1)/2 bits      (paper's S-UTM)
};

struct ChunkingOptions {
  /// Shared-memory budget per streaming multiprocessor, in bits
  /// (e.g. 16 KiB * 8 for the C1060).
  std::uint64_t shared_mem_bits = 16ull * 1024 * 8;
  SizeMetric metric = SizeMetric::kSutm;
  /// How many BFS start vertices to try per component (the paper iterates
  /// over unprocessed vertices; we bound the search).
  std::size_t max_start_trials = 8;
};

struct Chunk {
  std::uint32_t component = 0;
  std::uint32_t first_level = 0;  // inclusive
  std::uint32_t last_level = 0;   // inclusive
  std::vector<Vertex> vertices;   // union of levels [first, last], ascending
  std::uint64_t bits = 0;         // footprint under the chosen metric
  bool fits_shared = false;       // bits <= shared_mem_bits
};

struct ChunkingResult {
  std::vector<Chunk> chunks;
  /// Level decomposition of each component (indexed by component id)
  /// from the BFS root Algorithm 1 kept; Algorithm 2 forms the adjacent
  /// level sets within chunks from it.
  std::vector<LevelDecomposition> levels;
  /// Eq. 5 value achieved: number of chunks with bits > budget.
  std::size_t oversized_chunks = 0;
  /// Total unused shared-memory bits over chunks that do fit (fragmentation
  /// objective from Section V).
  std::uint64_t fragmentation_bits = 0;
};

/// Footprint in bits of a chunk with `c` vertices under `metric`.
std::uint64_t chunk_bits(std::uint64_t c, SizeMetric metric) noexcept;

/// Algorithm 1.  Splits every connected component of g into overlapping
/// consecutive-level chunks.  Components whose whole footprint fits the
/// budget become a single chunk.  For the rest, several BFS roots are
/// tried and the split with the fewest oversized chunks (then least
/// fragmentation) is kept.  A trial root is scored from its level sizes
/// alone (one LevelWalker walk); levels and chunk vertex lists are built
/// only for the winning root.
ChunkingResult split_into_chunks(const Graph& g, const ChunkingOptions& opts);

}  // namespace lgg::graph
