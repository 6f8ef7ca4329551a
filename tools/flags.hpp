// Command-line flag helpers shared by the lgg_* tools.  Each helper strips
// what it consumes from `args`, so whatever remains after parsing is
// positional (or unknown, for the caller to reject).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "util/parse.hpp"

namespace lgg::tools {

/// A tool's usage(): prints `message` plus the usage text and exits 2.
using UsageFn = void (*)(const char* message);

/// Strip a bare "--flag"; true when present.
inline bool take_flag(std::vector<std::string>& args, std::string_view flag) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// Strip "--flag value" or "--flag=value"; true when present.  A trailing
/// "--flag" with no value goes to `usage`.
inline bool take_value(std::vector<std::string>& args, std::string_view flag,
                       std::string& value, UsageFn usage) {
  const std::string joined = std::string(flag) + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      if (it + 1 == args.end()) {
        usage(("missing value for " + std::string(flag)).c_str());
        std::abort();  // usage() exits
      }
      value = *(it + 1);
      args.erase(it, it + 2);
      return true;
    }
    if (it->starts_with(joined)) {
      value = it->substr(joined.size());
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// `value` as a strict decimal u64 (util::parse_u64); anything else goes
/// to `usage`.
inline std::uint64_t parse_u64_or_usage(std::string_view flag,
                                        const std::string& value,
                                        UsageFn usage) {
  const auto v = util::parse_u64(value);
  if (!v) {
    usage(("bad value for " + std::string(flag) + ": '" + value + "'")
              .c_str());
    std::abort();  // usage() exits
  }
  return *v;
}

/// take_value parsed as a strict decimal u64, or `fallback` if absent.
inline std::uint64_t take_u64(std::vector<std::string>& args,
                              std::string_view flag, std::uint64_t fallback,
                              UsageFn usage) {
  std::string value;
  if (!take_value(args, flag, value, usage)) return fallback;
  return parse_u64_or_usage(flag, value, usage);
}

/// Strip "--faults RATE[,SEED]" (e.g. --faults=0.1,7); true when present.
/// `seed` keeps its value when the flag names none.
inline bool take_faults(std::vector<std::string>& args, double& rate,
                        std::uint64_t& seed, UsageFn usage) {
  std::string value;
  if (!take_value(args, "--faults", value, usage)) return false;
  rate = std::strtod(value.c_str(), nullptr);
  const std::size_t comma = value.find(',');
  if (comma != std::string::npos)
    seed = parse_u64_or_usage("--faults", value.substr(comma + 1), usage);
  return true;
}

}  // namespace lgg::tools
