#include <gtest/gtest.h>

#include <vector>

#include "graph/bit_matrix.hpp"
#include "graph/generators.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace lgg::graph {
namespace {

TEST(BitMatrix, SetGet) {
  BitMatrix m(100);
  EXPECT_FALSE(m.get(3, 97));
  m.set(3, 97);
  EXPECT_TRUE(m.get(3, 97));
  EXPECT_FALSE(m.get(97, 3));  // full matrix is not implicitly symmetric
  m.set(3, 97, false);
  EXPECT_FALSE(m.get(3, 97));
}

TEST(BitMatrix, FromGraphIsSymmetric) {
  const Graph g = erdos_renyi(64, 0.2, 1);
  const BitMatrix m = BitMatrix::from_graph(g);
  for (Vertex u = 0; u < 64; ++u)
    for (Vertex v = 0; v < 64; ++v)
      EXPECT_EQ(m.get(u, v), g.has_edge(u, v)) << u << "," << v;
}

TEST(BitMatrix, RowPaddingIsZero) {
  BitMatrix m(70);  // 70 bits -> 2 words per row, 58 padding bits
  m.set(0, 69);
  const auto row = m.row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1] >> 6, 0u);  // bits beyond column 69 stay clear
}

TEST(BitMatrix, StorageBits) {
  EXPECT_EQ(BitMatrix::storage_bits(0), 0u);
  EXPECT_EQ(BitMatrix::storage_bits(100), 10000u);
}

TEST(BitMatrix, MaxVerticesFor) {
  EXPECT_EQ(BitMatrix::max_vertices_for(100), 10u);
  EXPECT_EQ(BitMatrix::max_vertices_for(99), 9u);
  // Paper Table II: C1060 shared memory 16 KiB -> 362 vertices.
  EXPECT_EQ(BitMatrix::max_vertices_for(16ull * 1024 * 8), 362u);
}

TEST(SutMatrix, PairIndexIsDenseAndOrdered) {
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 6; ++i)
    for (std::uint64_t j = i + 1; j < 6; ++j)
      EXPECT_EQ(SutMatrix::pair_index(6, i, j), expect++) << i << "," << j;
  EXPECT_EQ(expect, SutMatrix::storage_bits(6));
  static_assert(SutMatrix::pair_index(6, 4, 5) == 14);
}

// The S-UTM packing of a graph (pair (u < v) at bit pair_index(n, u, v),
// the hybrid kernel's shared-memory layout) holds exactly its edges.
TEST(SutMatrix, MatchesBitMatrixOnRandomGraph) {
  const Graph g = erdos_renyi(80, 0.15, 9);
  std::vector<std::uint64_t> sutm(
      words_for_bits(SutMatrix::storage_bits(80)), 0);
  for (Vertex u = 0; u < 80; ++u)
    for (const Vertex v : g.neighbors(u))
      if (u < v) set_bit(sutm, SutMatrix::pair_index(80, u, v));
  const BitMatrix b = BitMatrix::from_graph(g);
  for (Vertex u = 0; u < 80; ++u)
    for (Vertex v = u + 1; v < 80; ++v)
      EXPECT_EQ(get_bit(sutm, SutMatrix::pair_index(80, u, v)), b.get(u, v))
          << u << "," << v;
}

TEST(SutMatrix, StorageBitsHalvesMatrix) {
  EXPECT_EQ(SutMatrix::storage_bits(100), 4950u);
  EXPECT_EQ(SutMatrix::storage_bits(1), 0u);
}

// Paper Table II reproduction at the unit level: S-UTM columns.
struct TableIIRow {
  std::uint64_t mem_bits;
  std::uint64_t want;
};

class SutmCapacity : public ::testing::TestWithParam<TableIIRow> {};

TEST_P(SutmCapacity, MatchesPaperTableII) {
  EXPECT_EQ(SutMatrix::max_vertices_for(GetParam().mem_bits),
            GetParam().want);
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, SutmCapacity,
    ::testing::Values(
        // Shared memory: C1060 16 KiB -> 512; C2050/C2070 48 KiB -> 887.
        TableIIRow{16ull * 1024 * 8, 512},
        TableIIRow{48ull * 1024 * 8, 887},
        // Global memory: C1060 4 GiB -> 262144; C2070 6 GiB -> 321060
        // (paper values; see bench_table2_maxsize for the full table).
        TableIIRow{4ull * 1024 * 1024 * 1024 * 8, 262144},
        TableIIRow{6ull * 1024 * 1024 * 1024 * 8, 321060}));

TEST(Capacity, AdjMatVsSutmConsistency) {
  // S-UTM always admits at least as many vertices as the full matrix.
  for (const std::uint64_t bits : {100ull, 5000ull, 123456ull, 1048576ull}) {
    EXPECT_GE(SutMatrix::max_vertices_for(bits),
              BitMatrix::max_vertices_for(bits));
  }
}

}  // namespace
}  // namespace lgg::graph
