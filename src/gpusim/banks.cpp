#include "gpusim/banks.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace lgg::gpusim {

std::uint32_t bank_conflict_degree(std::span<const std::uint64_t> addrs,
                                   std::uint32_t banks) {
  LGG_CHECK(banks > 0, "bank_conflict_degree: banks must be positive");
  LGG_CHECK(addrs.size() <= kMaxBankAccesses,
            "bank_conflict_degree: " << addrs.size() << " accesses exceed "
                                     << kMaxBankAccesses << " lanes");
  if (addrs.empty()) return 0;

  // Distinct words in fixed storage (same word from many lanes
  // broadcasts), then the largest group of distinct words sharing a bank.
  std::array<std::uint64_t, kMaxBankAccesses> words{};
  std::array<std::uint32_t, kMaxBankAccesses> word_bank{};
  std::size_t distinct = 0;
  for (const std::uint64_t addr : addrs) {
    const std::uint64_t word = addr / 4;
    const auto end = words.begin() + static_cast<std::ptrdiff_t>(distinct);
    if (std::find(words.begin(), end, word) != end) continue;
    words[distinct] = word;
    word_bank[distinct] = bank_of(addr, banks);
    ++distinct;
  }
  std::uint32_t degree = 1;
  for (std::size_t i = 0; i < distinct; ++i) {
    std::uint32_t same_bank = 0;
    for (std::size_t j = 0; j < distinct; ++j)
      same_bank += static_cast<std::uint32_t>(word_bank[j] == word_bank[i]);
    degree = std::max(degree, same_bank);
  }
  return degree;
}

}  // namespace lgg::gpusim
