#include "combi/combinadic.hpp"

#include "combi/binomial.hpp"
#include "util/error.hpp"

namespace lgg::combi {

void combination_from_index(std::uint64_t index, std::uint32_t n,
                            std::uint32_t k, std::span<std::uint32_t> out) {
  LGG_CHECK(out.size() == k, "output buffer size " << out.size()
                                                   << " != k=" << k);
  const std::uint64_t total = binomial(n, k);
  LGG_CHECK(total != kBinomialOverflow, "C(" << n << "," << k
                                             << ") overflows 64 bits");
  LGG_CHECK(index < total,
            "combination index " << index << " >= C(" << n << "," << k
                                 << ")=" << total);

  // Walk candidate first elements: element v is the first of
  // C(n - 1 - v, k - 1) combinations; subtract blocks until the index
  // lands inside one, then recurse on the suffix.  O(n) per combination.
  std::uint32_t v = 0;
  for (std::uint32_t slot = 0; slot < k; ++slot) {
    for (;;) {
      const std::uint64_t block = binomial(n - 1 - v, k - 1 - slot);
      LGG_ASSERT(block != kBinomialOverflow);
      if (index < block) break;
      index -= block;
      ++v;
    }
    out[slot] = v;
    ++v;
  }
}

std::uint64_t index_from_combination(std::span<const std::uint32_t> combo,
                                     std::uint32_t n) {
  const auto k = static_cast<std::uint32_t>(combo.size());
  std::uint64_t index = 0;
  std::uint32_t prev = 0;  // first candidate value for this slot
  for (std::uint32_t slot = 0; slot < k; ++slot) {
    const std::uint32_t v = combo[slot];
    LGG_CHECK(v < n, "combination element " << v << " out of range n=" << n);
    LGG_CHECK(slot == 0 || v > combo[slot - 1],
              "combination not strictly increasing");
    for (std::uint32_t skipped = prev; skipped < v; ++skipped) {
      const std::uint64_t block = binomial(n - 1 - skipped, k - 1 - slot);
      LGG_ASSERT(block != kBinomialOverflow);
      index += block;
    }
    prev = v + 1;
  }
  return index;
}

bool next_combination(std::span<std::uint32_t> combo, std::uint32_t n) {
  const auto k = static_cast<std::uint32_t>(combo.size());
  if (k == 0) return false;
  // Find the rightmost element that can still be incremented: element at
  // slot i may grow up to n - k + i.
  std::uint32_t i = k;
  while (i > 0) {
    --i;
    if (combo[i] < n - k + i) {
      ++combo[i];
      for (std::uint32_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
      return true;
    }
  }
  return false;
}

}  // namespace lgg::combi
