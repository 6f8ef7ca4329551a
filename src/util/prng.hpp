// Deterministic pseudo-random number generation for graph generators and
// property tests.  We provide our own small generators (SplitMix64 for
// seeding, xoshiro256** for the stream) so results are reproducible across
// standard libraries — std::mt19937 streams are portable but slow, and
// std::uniform_int_distribution output is NOT portable across vendors.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace lgg {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x1234567890ABCDEFull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }

  // next() and uniform() are defined here so hot sampling loops (wedge
  // sampling draws three per sample) inline them.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias
  /// (Lemire's multiply-then-shift rejection method).
  std::uint64_t uniform(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire rejection sampling: unbiased and usually a single multiply.
    __extension__ typedef unsigned __int128 U128;  // GNU extension under -Wpedantic
    std::uint64_t x = next();
    U128 m = static_cast<U128>(x) * static_cast<U128>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<U128>(x) * static_cast<U128>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace lgg
