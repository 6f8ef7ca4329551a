#include "graph/bit_matrix.hpp"

#include <cmath>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace lgg::graph {

BitMatrix::BitMatrix(std::size_t n)
    : n_(n),
      words_per_row_(words_for_bits(n)),
      words_(n * words_per_row_, 0) {}

BitMatrix BitMatrix::from_graph(const Graph& g) {
  BitMatrix m(g.num_vertices());
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (Vertex v : g.neighbors(u)) m.set(u, v);
  return m;
}

bool BitMatrix::get(std::size_t i, std::size_t j) const noexcept {
  return get_bit(row(i), j);
}

void BitMatrix::set(std::size_t i, std::size_t j, bool value) noexcept {
  std::span<std::uint64_t> r{words_.data() + i * words_per_row_,
                             words_per_row_};
  if (value)
    set_bit(r, j);
  else
    clear_bit(r, j);
}

std::uint64_t BitMatrix::max_vertices_for(std::uint64_t mem_bits) noexcept {
  // Largest n with n^2 <= mem_bits: floor(sqrt(mem_bits)), fixed up for
  // floating-point rounding.
  auto n = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(mem_bits)));
  while ((n + 1) * (n + 1) <= mem_bits) ++n;
  while (n > 0 && n * n > mem_bits) --n;
  return n;
}

std::uint64_t SutMatrix::max_vertices_for(std::uint64_t mem_bits) noexcept {
  // Paper Table II accounting: UTM needs n(n+1)/2 <= S_mem; S-UTM (no
  // diagonal) admits one more vertex.  Solve n(n+1)/2 <= mem_bits, then +1.
  auto n = static_cast<std::uint64_t>(
      (std::sqrt(8.0 * static_cast<double>(mem_bits) + 1.0) - 1.0) / 2.0);
  while ((n + 1) * (n + 2) / 2 <= mem_bits) ++n;
  while (n > 0 && n * (n + 1) / 2 > mem_bits) --n;
  return n + 1;
}

}  // namespace lgg::graph
