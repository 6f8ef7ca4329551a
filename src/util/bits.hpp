// Small bit-manipulation helpers used by the bit-packed adjacency matrix
// (graph::BitMatrix) and the gpusim address arithmetic.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace lgg {

inline constexpr std::size_t kBitsPerWord = 64;

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

/// Read bit `i` of a packed word array.
constexpr bool get_bit(std::span<const std::uint64_t> words,
                       std::size_t i) noexcept {
  return (words[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
}

/// Set bit `i` of a packed word array to 1.
constexpr void set_bit(std::span<std::uint64_t> words, std::size_t i) noexcept {
  words[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
}

/// Clear bit `i` of a packed word array.
constexpr void clear_bit(std::span<std::uint64_t> words,
                         std::size_t i) noexcept {
  words[i / kBitsPerWord] &= ~(std::uint64_t{1} << (i % kBitsPerWord));
}

/// Population count over a word array (number of set bits).
constexpr std::uint64_t popcount(std::span<const std::uint64_t> words) noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t w : words) total += static_cast<std::uint64_t>(std::popcount(w));
  return total;
}

/// Population count of the bitwise AND of two equal-length word arrays —
/// the inner loop of bit-matrix triangle counting (|N(u) ∩ N(v)|).
constexpr std::uint64_t and_popcount(std::span<const std::uint64_t> a,
                                     std::span<const std::uint64_t> b) noexcept {
  std::uint64_t total = 0;
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  return total;
}

/// Round `x` up to the next multiple of `align` (align must be a power of 2).
constexpr std::uint64_t round_up_pow2(std::uint64_t x, std::uint64_t align) noexcept {
  return (x + align - 1) & ~(align - 1);
}

/// Visit the index of every set bit in `words`, lowest first.
template <typename Fn>
constexpr void for_each_set_bit(std::span<const std::uint64_t> words, Fn&& fn) {
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const int b = std::countr_zero(w);
      fn(wi * kBitsPerWord + static_cast<std::size_t>(b));
      w &= w - 1;  // clear lowest set bit
    }
  }
}

}  // namespace lgg
