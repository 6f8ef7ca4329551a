// Strict number parsing for checkpoints, request lines and tool flags:
// the whole token or nothing -- no whitespace, no trailing text, no
// overflow.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

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

/// The finite double a whole decimal token spells ("0.25", "-1", "1e-3",
/// ".5"); nullopt for anything else ("", "+1", "0x1p3", "1.5x", " 1",
/// "nan", "inf", 1e999).  Locale-independent, correctly rounded.
[[nodiscard]] inline std::optional<double> parse_f64(std::string_view s) {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || ptr != end || !std::isfinite(v))
    return std::nullopt;
  return v;
}

}  // namespace lgg::util
