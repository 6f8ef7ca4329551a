#include "util/prng.hpp"

namespace lgg {

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  // Never allow the all-zero state; SplitMix64 expansion guarantees this
  // with overwhelming probability, but we guard anyway.
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ull;
}

}  // namespace lgg
