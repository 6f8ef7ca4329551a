// Strict decimal integer parsing for checkpoints, request lines and tool
// flags: digits only, no sign, no whitespace, no overflow.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace lgg::util {

/// The value of a non-empty run of decimal digits that fits in 64 bits;
/// nullopt for anything else ("", "+5", "-1", "7x", 2^64).
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

}  // namespace lgg::util
