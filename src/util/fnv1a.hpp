// 64-bit FNV-1a: the one content hash behind graph digests, checkpoint
// option fingerprints, plan digests and the checkpoint digest trailer.
// Header-inline because graph admission digests every CSR word through it.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lgg::util {

/// Incremental 64-bit FNV-1a.  Multi-byte integers are folded
/// little-endian at fixed widths so every value is platform-independent.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void bytes(std::string_view s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kPrime;
    }
  }

  /// The 8 little-endian bytes of v.  A zero byte folds as one multiply
  /// by the prime, so the bytes above v's highest non-zero byte fold as
  /// one multiply by a power of it: the same value as folding them one
  /// at a time, without the loop over the widened zeros.
  void u64(std::uint64_t v) {
    const auto used = static_cast<std::size_t>(std::bit_width(v) + 7) / 8;
    for (std::size_t i = 0; i < used; ++i, v >>= 8) {
      hash_ ^= v & 0xff;
      hash_ *= kPrime;
    }
    hash_ *= kPrimePowers[8 - used];
  }

  /// A length-prefixed string.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  /// kPrimePowers[k] = kPrime^k mod 2^64.
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t k = 1; k < powers.size(); ++k)
      powers[k] = powers[k - 1] * kPrime;
    return powers;
  }();

  std::uint64_t hash_ = kOffset;
};

}  // namespace lgg::util
