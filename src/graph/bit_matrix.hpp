// Bit-packed adjacency representations from Section IV of the paper.
//
//  * BitMatrix  — full n×n adjacency matrix, one bit per ordered pair
//                 (Eq. 1: n^2 <= S_mem).
//  * SutMatrix  — the Strictly Upper Triangular Matrix (S-UTM) layout: only
//                 pairs with i < j are stored (Eq. 2: n(n+1)/2 <= S_mem for
//                 UTM; the strict variant drops the diagonal and stores
//                 n(n-1)/2 bits, which is what lets "the largest graph
//                 increase by 1" in the paper's Table II).
//
// Both support the capacity queries the paper's Table II is computed from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lgg::graph {

/// Full n×n bit adjacency matrix, row-major, 64-bit word packed.
/// Rows are padded to whole words so each row is independently addressable —
/// this mirrors the row-contiguous device layout used by the GPU kernels.
class BitMatrix {
 public:
  explicit BitMatrix(std::size_t n = 0);
  static BitMatrix from_graph(const Graph& g);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }

  [[nodiscard]] bool get(std::size_t i, std::size_t j) const noexcept;
  void set(std::size_t i, std::size_t j, bool value = true) noexcept;

  /// Row i as a word span (padded with zero bits beyond column n-1).
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t i) const noexcept {
    return {words_.data() + i * words_per_row_, words_per_row_};
  }

  [[nodiscard]] std::span<const std::uint64_t> raw_words() const noexcept {
    return words_;
  }

  /// Storage cost in bits of the *logical* representation (n^2), as used by
  /// the paper's Eq. (1); padding is an implementation detail.
  [[nodiscard]] static std::uint64_t storage_bits(std::uint64_t n) noexcept {
    return n * n;
  }

  /// Largest n with storage_bits(n) <= mem_bits (paper Table II column
  /// "Adj Mat").
  static std::uint64_t max_vertices_for(std::uint64_t mem_bits) noexcept;

 private:
  std::size_t n_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// The Strictly Upper Triangular Matrix layout for undirected simple
/// graphs: only pairs (i, j) with i < j are stored, n(n-1)/2 bits.  The
/// hybrid chunk kernel stages a shared-resident chunk in this layout and
/// addresses it through pair_index; Table II's capacity comes from
/// max_vertices_for.
class SutMatrix {
 public:
  /// Linear bit index of the pair (i, j), i < j < n, in row-major strict
  /// upper triangular order: row i holds n-1-i bits and starts at
  /// sum_{r<i} (n-1-r) = i(2n - i - 1)/2.
  [[nodiscard]] static constexpr std::uint64_t pair_index(
      std::uint64_t n, std::uint64_t i, std::uint64_t j) noexcept {
    return i * (2 * n - i - 1) / 2 + (j - i - 1);
  }

  /// Logical storage cost in bits: n(n-1)/2 (paper's S-UTM).
  [[nodiscard]] static constexpr std::uint64_t storage_bits(
      std::uint64_t n) noexcept {
    return n * (n - 1) / 2;
  }

  /// Largest n with storage_bits(n) <= mem_bits.  The paper's Table II
  /// "S-UTM" columns use the UTM bound n(n+1)/2 <= S_mem and then add one
  /// vertex for dropping the diagonal; max_vertices_for reproduces that
  /// accounting (see bench_table2_maxsize).
  static std::uint64_t max_vertices_for(std::uint64_t mem_bits) noexcept;
};

}  // namespace lgg::graph
