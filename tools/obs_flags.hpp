// The observability flags shared by lgg_cli, lgg_serve and lgg_fuzz
// (--trace, --trace-tree, --metrics, --profile, --profile-tree,
// --flamegraph, --trace-cap) and the exports they request.  --trace FILE
// and --trace-cap N take a value; the other exports are output flags,
// "--flag" (stdout) or "--flag=FILE" (take_output).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "flags.hpp"
#include "lgg.hpp"

namespace lgg::tools {

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
  /// Set by the tool, not by take(): what arm() installs besides the
  /// session and profiler.  No exec keeps the driver's default policy.
  std::optional<gpusim::ExecPolicy> exec;
  sancheck::SancheckMode sancheck = sancheck::SancheckMode::kOff;

  /// Strip the flags from args.
  void take(std::vector<std::string>& args, UsageFn usage) {
    const auto output = [&](std::string_view flag, std::string& path,
                            bool profiles) {
      if (take_optional_value(args, flag, path)) {
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
    if (const auto cap = take_u64(args, "--trace-cap", usage)) {
      sess.tracer.set_span_cap(static_cast<std::size_t>(*cap));
      enabled = true;
    }
  }

  /// The session to hand a driver: null when no flag armed tracing.
  obs::Session* session() { return enabled ? &sess : nullptr; }
  gpusim::ProfilerHook* prof() { return profiling ? &profiler : nullptr; }

  /// Install the policy, sancheck mode, session and profiler on a driver.
  void arm(core::RunContext& ctx) {
    if (exec) ctx.exec = *exec;
    ctx.sancheck = sancheck;
    ctx.obs = session();
    ctx.prof = prof();
  }

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
