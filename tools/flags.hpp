// The one flag grammar of the lgg_* tools: the only code that turns argv
// into values.  Each helper strips what it consumes from `args`, so
// whatever remains after parsing is positional (or unknown, for the caller
// to reject).  Numbers are whole tokens (util::parse_u64 / parse_f64); a
// malformed one, like a missing value, goes to the tool's usage(), which
// names the flag and exits 2.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/executor.hpp"
#include "resilience/runner.hpp"
#include "util/parse.hpp"

namespace lgg::tools {

/// A tool's usage(): prints `message` plus the usage text and exits 2.
using UsageFn = void (*)(const char* message);

[[noreturn]] inline void fail(UsageFn usage, const std::string& message) {
  usage(message.c_str());
  std::abort();  // usage() exits
}

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
      if (it + 1 == args.end())
        fail(usage, "missing value for " + std::string(flag));
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

/// Strip "--flag" or "--flag=value", never consuming the next token; true
/// when present.  `value` is "-" for the bare form, so an output flag
/// writes to stdout when bare or given "=-".
inline bool take_optional_value(std::vector<std::string>& args,
                                std::string_view flag, std::string& value) {
  const std::string joined = std::string(flag) + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag || it->starts_with(joined)) {
      value = *it == flag ? "-" : it->substr(joined.size());
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// Send anything left after the first `n` positionals (an unknown flag or
/// an extra argument, such as the FILE of "--metrics FILE") to `usage`.
inline void reject_extra_args(const std::vector<std::string>& args,
                              std::size_t n, UsageFn usage) {
  if (args.size() > n) fail(usage, "unexpected argument: " + args[n]);
}

/// Send any argument left that looks like a flag to `usage`: for tools
/// whose positionals are a list of paths.
inline void reject_unknown_flags(const std::vector<std::string>& args,
                                 UsageFn usage) {
  for (const std::string& a : args)
    if (a.starts_with("-")) fail(usage, "unknown option '" + a + "'");
}

/// `value` parsed by `parse`, or usage() naming `what`.
template <typename Parse>
auto parse_or_usage(std::string_view what, const std::string& value,
                    Parse parse, UsageFn usage) {
  const auto v = parse(value);
  if (!v)
    fail(usage, "bad value for " + std::string(what) + ": '" + value + "'");
  return *v;
}

/// take_value as a strict decimal u64; nullopt when absent.
inline std::optional<std::uint64_t> take_u64(std::vector<std::string>& args,
                                             std::string_view flag,
                                             UsageFn usage) {
  std::string value;
  if (!take_value(args, flag, value, usage)) return std::nullopt;
  return parse_or_usage(flag, value, util::parse_u64, usage);
}

inline std::uint64_t take_u64(std::vector<std::string>& args,
                              std::string_view flag, std::uint64_t fallback,
                              UsageFn usage) {
  return take_u64(args, flag, usage).value_or(fallback);
}

/// take_value as a strict finite double, or `fallback` if absent.
inline double take_f64(std::vector<std::string>& args, std::string_view flag,
                       double fallback, UsageFn usage) {
  std::string value;
  if (!take_value(args, flag, value, usage)) return fallback;
  return parse_or_usage(flag, value, util::parse_f64, usage);
}

/// Positional argument `i` as a strict u64 / finite double, or `fallback`
/// when there are fewer arguments.
inline std::uint64_t arg_u64(const std::vector<std::string>& args,
                             std::size_t i, std::uint64_t fallback,
                             UsageFn usage) {
  if (i >= args.size()) return fallback;
  return parse_or_usage("argument " + std::to_string(i + 1), args[i],
                        util::parse_u64, usage);
}

inline double arg_f64(const std::vector<std::string>& args, std::size_t i,
                      double fallback, UsageFn usage) {
  if (i >= args.size()) return fallback;
  return parse_or_usage("argument " + std::to_string(i + 1), args[i],
                        util::parse_f64, usage);
}

/// Strip "--faults RATE[,SEED]" (e.g. --faults=0.1,7); true when present.
/// RATE is a finite probability in [0, 1]; `seed` keeps its value when the
/// flag names none.
inline bool take_faults(std::vector<std::string>& args, double& rate,
                        std::uint64_t& seed, UsageFn usage) {
  std::string value;
  if (!take_value(args, "--faults", value, usage)) return false;
  const std::size_t comma = value.find(',');
  rate = parse_or_usage("--faults", value.substr(0, comma), util::parse_f64,
                        usage);
  if (rate < 0.0 || rate > 1.0) fail(usage, "--faults rate must be in [0, 1]");
  if (comma != std::string::npos)
    seed = parse_or_usage("--faults", value.substr(comma + 1),
                          util::parse_u64, usage);
  return true;
}

/// Strip "--failover cpu|stream|off"; true when present.
inline bool take_failover(std::vector<std::string>& args,
                          resilience::Failover& mode, UsageFn usage) {
  std::string value;
  if (!take_value(args, "--failover", value, usage)) return false;
  for (const auto f : {resilience::Failover::kCpu,
                       resilience::Failover::kStream,
                       resilience::Failover::kOff}) {
    if (value == resilience::failover_name(f)) {
      mode = f;
      return true;
    }
  }
  fail(usage, "unknown failover mode: " + value);
}

/// The host policy a "--threads N" count selects in lgg_cli, lgg_serve and
/// lgg_chaos: N <= 1 runs serial, otherwise a private pool of N workers.
inline gpusim::ExecPolicy exec_policy(std::uint64_t threads) {
  return threads <= 1
             ? gpusim::ExecPolicy::serial()
             : gpusim::ExecPolicy::parallel(static_cast<std::size_t>(threads));
}

/// The whole of `path`; an unreadable file goes to `usage`.
inline std::string read_file(const std::string& path, UsageFn usage) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(usage, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Write `text` to `path`, or to stdout when path is "-"; a path that
/// cannot be written goes to `usage`.
inline void write_output(const std::string& path, const std::string& text,
                         UsageFn usage) {
  if (path == "-") {
    std::cout << text;
    return;
  }
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  if (!out) fail(usage, "cannot write " + path);
}

}  // namespace lgg::tools
