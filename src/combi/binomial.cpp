#include "combi/binomial.hpp"

#include <bit>

namespace lgg::combi {

namespace {
// 128-bit intermediates keep the running products exact; the __extension__
// marker silences -Wpedantic (GNU extension, available on every supported
// compiler).
__extension__ typedef unsigned __int128 U128;
}  // namespace

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  if (k == 0) return 1;

  // result = prod_{i=1..k} (n - k + i) / i, keeping the running value exact:
  // after the i-th step the value is C(n-k+i, i), an integer.
  U128 result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i);
    result /= i;
    if (result >= kBinomialOverflow) return kBinomialOverflow;
  }
  return static_cast<std::uint64_t>(result);
}

namespace detail {
namespace {

/// The inverse of 3 modulo 2^128: multiplying a multiple of 3 by it
/// divides exactly, with no 128-bit division.
constexpr U128 kInverse3 = ~U128{0} / 3 * 2 + 1;

/// C(n, k) for 2 <= k <= 4 and n < 2^32, exact: the largest value,
/// C(n, 4), stays under 2^124.
U128 choose128(std::uint64_t n, std::uint64_t k) noexcept {
  if (n < k) return 0;
  const U128 pairs = n * (n - 1) / 2;
  if (k == 2) return pairs;
  const U128 triples = pairs * (n - 2) * kInverse3;  // 3 | n(n-1)(n-2)
  if (k == 3) return triples;
  return triples * (n - 3) / 4;  // C(n,3)(n-3) is a multiple of 4
}

}  // namespace

std::uint64_t binomial_difference_wide(std::uint32_t s, std::uint32_t x,
                                       std::uint32_t k) noexcept {
  if (k <= 4) {  // k >= 2 here: C(s, 0) and C(s, 1) always fit
    const U128 d = choose128(s, k) - choose128(s - x, k);
    return d >= kBinomialOverflow ? kBinomialOverflow
                                  : static_cast<std::uint64_t>(d);
  }
  const std::uint64_t all = binomial(s, k);
  if (all == kBinomialOverflow) return kBinomialOverflow;
  return all - binomial(s - x, k);
}

}  // namespace detail

std::uint64_t precomputed_storage_bits(std::uint64_t n,
                                       std::uint64_t k) noexcept {
  const std::uint64_t combos = binomial(n, k);
  if (combos == kBinomialOverflow) return kBinomialOverflow;
  const std::uint64_t id_bits =
      n <= 1 ? 1 : static_cast<std::uint64_t>(std::bit_width(n - 1));
  const U128 total = static_cast<U128>(combos) * k * id_bits;
  if (total >= kBinomialOverflow) return kBinomialOverflow;
  return static_cast<std::uint64_t>(total);
}

}  // namespace lgg::combi
