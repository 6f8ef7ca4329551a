// The observability flags shared by lgg_cli and lgg_serve (--trace,
// --trace-tree, --metrics, --profile, --profile-tree, --flamegraph,
// --trace-cap) and the exports they request.  Each tool keeps its own
// value grammar for the output flags (OutputGrammar).
#pragma once

#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "flags.hpp"
#include "lgg.hpp"

namespace lgg::tools {

/// How --trace-tree, --metrics, --profile, --profile-tree and --flamegraph
/// take their file: lgg_cli's "--flag[=FILE]" (bare: stdout, never
/// consuming the next token) or lgg_serve's "--flag FILE" / "--flag=FILE".
/// --trace and --trace-cap always take a value.
enum class OutputGrammar { kOptionalValue, kRequiredValue };

/// Strip "--flag" (bare) or "--flag=value" from args, never consuming the
/// next token.  Returns true when the flag was present; value is "-" for
/// the bare form.
inline bool take_optional_value(std::vector<std::string>& args,
                                std::string_view flag, std::string& value) {
  const std::string joined = std::string(flag) + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      value = "-";
      args.erase(it);
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

/// Write `text` to `path`, or to stdout when path is "-"; a path that
/// cannot be opened goes to `usage`.
inline void write_output(const std::string& path, const std::string& text,
                         UsageFn usage) {
  if (path == "-") {
    std::cout << text;
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) usage(("cannot write " + path).c_str());
  out << text;
}

/// The parsed flags plus the session and profiler they arm.
struct ObsFlags {
  obs::Session sess;
  prof::Profiler profiler{&sess};  // attribution from the session's tracer
  bool enabled = false;
  bool profiling = false;
  std::string trace_path;
  std::string tree_path;          // "-" = stdout
  std::string metrics_path;       // "-" = stdout
  std::string profile_path;       // "-" = stdout
  std::string profile_tree_path;  // "-" = stdout
  std::string flamegraph_path;    // "-" = stdout

  /// Strip the flags from args.
  void take(std::vector<std::string>& args, OutputGrammar grammar,
            UsageFn usage) {
    const auto output = [&](std::string_view flag, std::string& path,
                            bool profiles) {
      if (grammar == OutputGrammar::kOptionalValue
              ? take_optional_value(args, flag, path)
              : take_value(args, flag, path, usage)) {
        enabled = true;
        profiling = profiling || profiles;
      }
    };
    if (take_value(args, "--trace", trace_path, usage)) enabled = true;
    output("--trace-tree", tree_path, false);
    output("--metrics", metrics_path, false);
    output("--profile", profile_path, true);
    output("--profile-tree", profile_tree_path, true);
    // The flamegraph is a pure function of the span tree.
    output("--flamegraph", flamegraph_path, false);
    std::string value;
    if (take_value(args, "--trace-cap", value, usage)) {
      sess.tracer.set_span_cap(static_cast<std::size_t>(
          parse_u64_or_usage("--trace-cap", value, usage)));
      enabled = true;
    }
  }

  /// The session to hand a driver: null when no flag armed tracing.
  obs::Session* session() { return enabled ? &sess : nullptr; }
  gpusim::ProfilerHook* prof() { return profiling ? &profiler : nullptr; }

  /// Write every requested export.  Observable span loss is only emitted
  /// when the cap actually dropped spans, so default runs keep their
  /// metric set.
  void finish(UsageFn usage) {
    if (!enabled) return;
    if (sess.tracer.dropped() > 0)
      sess.metrics.count("lgg_obs_spans_dropped_total", sess.tracer.dropped());
    if (profiling) profiler.export_metrics(sess.metrics);
    if (!trace_path.empty())
      write_output(trace_path,
                   obs::chrome_trace_json(
                       sess.tracer, profiling ? profiler.counter_track_events()
                                              : std::vector<std::string>{}),
                   usage);
    if (!tree_path.empty())
      write_output(tree_path, obs::span_tree_text(sess.tracer), usage);
    if (!profile_path.empty())
      write_output(profile_path, profiler.profile_text(), usage);
    if (!profile_tree_path.empty())
      write_output(profile_tree_path, profiler.profile_tree_text(), usage);
    if (!flamegraph_path.empty())
      write_output(flamegraph_path, prof::flamegraph_text(sess.tracer), usage);
    if (!metrics_path.empty())
      write_output(metrics_path, sess.metrics.prometheus_text(), usage);
  }
};

}  // namespace lgg::tools
