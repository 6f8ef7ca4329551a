// Binomial coefficients with explicit overflow behaviour.
//
// Combination counts drive work division across simulated GPU threads
// (Section VIII-D); for n ~ 100,000 and k = 3 the counts approach 1.7e14,
// so 64-bit arithmetic with overflow *detection* (not silent wraparound)
// is required.
#pragma once

#include <algorithm>
#include <cstdint>

namespace lgg::combi {

/// Sentinel returned by binomial() when C(n, k) does not fit in 64 bits.
inline constexpr std::uint64_t kBinomialOverflow = ~std::uint64_t{0};

/// C(n, k), or kBinomialOverflow if the exact value exceeds 2^64 - 2.
/// C(n, 0) == 1; k > n yields 0.  O(min(k, n-k)) multiplications with
/// 128-bit intermediates, exact at every step.
std::uint64_t binomial(std::uint64_t n, std::uint64_t k) noexcept;

/// Storage cost, in bits, of precomputing all C(n, k) combinations of
/// k * log2ceil(n)-bit node ids — the paper's Section VIII-A accounting
/// (n C k * k * log n bits).  Saturates to kBinomialOverflow.
std::uint64_t precomputed_storage_bits(std::uint64_t n,
                                       std::uint64_t k) noexcept;

namespace detail {
/// Largest n whose falling factorial n(n-1)...(n-k+1) fits in 64 bits,
/// for k <= 4: up to here C(n, k) takes plain 64-bit arithmetic.
inline constexpr std::uint64_t kFalling64[5] = {~std::uint64_t{0},
                                                ~std::uint64_t{0},
                                                std::uint64_t{1} << 32,
                                                2642246, 65536};

/// C(n, k) for k <= 4 and n <= kFalling64[k]: the falling factorial over
/// k!.  For n < k one factor is 0, so the product is too.
constexpr std::uint64_t choose64(std::uint64_t n, std::uint32_t k) noexcept {
  switch (k) {
    case 0: return 1;
    case 1: return n;
    case 2: return n * (n - 1) / 2;
    case 3: return n * (n - 1) * (n - 2) / 6;
    default: return n * (n - 1) * (n - 2) * (n - 3) / 24;
  }
}

/// binomial_difference past the 64-bit range (x <= s).
std::uint64_t binomial_difference_wide(std::uint32_t s, std::uint32_t x,
                                       std::uint32_t k) noexcept;
}  // namespace detail

/// C(s, k) - C(s - x, k), with x > s taken as s: the number of
/// k-combinations of [0, s) whose first element is below x (the
/// hockey-stick count of an ALS job or a k-clique window).  Exact for
/// k <= 4 — in 64 bits while C(s, k) is, then in 128 — so it holds after
/// C(s, k) alone passes 2^64; kBinomialOverflow only when the difference
/// itself does not fit.  For k > 4 it subtracts 64-bit binomials and
/// returns kBinomialOverflow whenever C(s, k) does not fit.  Inline: the
/// ALS and k-clique decodes binary-search on it.
inline std::uint64_t binomial_difference(std::uint32_t s, std::uint32_t x,
                                         std::uint32_t k) noexcept {
  x = std::min(x, s);
  if (k <= 4 && s <= detail::kFalling64[k])
    return detail::choose64(s, k) - detail::choose64(s - x, k);
  return detail::binomial_difference_wide(s, x, k);
}

/// The first element of the index-th k-combination of [0, s) whose first
/// element is below x_max (index < binomial_difference(s, x_max, k)):
/// the largest x < x_max with binomial_difference(s, x, k) <= index, by
/// binary search.  `before` receives that count, the index of the first
/// combination that starts at x.  The arithmetic is chosen once, outside
/// the loop, so the 64-bit search compiles branch-free.
inline std::uint32_t first_element_below(std::uint32_t s, std::uint32_t x_max,
                                         std::uint32_t k, std::uint64_t index,
                                         std::uint64_t& before) noexcept {
  const auto search = [&](const auto& count_below) {
    std::uint32_t lo = 0, hi = x_max;  // count(lo) <= index < count(hi)
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (count_below(mid) <= index)
        lo = mid;
      else
        hi = mid;
    }
    before = count_below(lo);
    return lo;
  };
  if (k <= 4 && s <= detail::kFalling64[k]) {
    const std::uint64_t all = detail::choose64(s, k);
    return search(
        [&](std::uint32_t x) { return all - detail::choose64(s - x, k); });
  }
  return search([&](std::uint32_t x) {
    return detail::binomial_difference_wide(s, x, k);
  });
}

}  // namespace lgg::combi
