// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (ingest, core, gpusim, resilience, serve), never inside
// the library, and kept in memory until the run ends.  A disabled tracer
// records nothing, so the untraced run pays one branch per call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0.0;  // on the tracer's clock
  double end_ms = 0.0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 at top level
  std::uint64_t op = 0;      // op the span belongs to
};

class Tracer {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Switch recording on or off between ops (open spans stay valid).
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] double now_ms() const noexcept { return clock_.elapsed_ms(); }

  /// Open a span nested in the innermost open one; kNone when disabled.
  std::size_t open(std::string name, std::uint64_t op);
  /// Close span `id` (must be the innermost open span).
  void close(std::size_t id);
  /// Rename a span, for names only known once the call returned.
  void rename(std::size_t id, std::string name);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// One tab-separated line per span: index, parent, op, name, start,
  /// end, self time (ms).
  void write_tsv(std::ostream& out) const;

 private:
  bool enabled_;
  lgg::Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::uint64_t op)
      : tracer_(tracer), id_(tracer.open(std::move(name), op)) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void close() {
    if (open_ && id_ != Tracer::kNone) tracer_.close(id_);
    open_ = false;
  }
  /// Rename the span, also after close().
  void rename(std::string name) {
    if (id_ != Tracer::kNone) tracer_.rename(id_, std::move(name));
  }

 private:
  Tracer& tracer_;
  std::size_t id_;
  bool open_ = true;
};

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover.
[[nodiscard]] std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Share of the wall time of the spans named `op_name` that no child span
/// covers (0 when there are none).
[[nodiscard]] double unattributed_frac(const std::vector<Span>& spans,
                                       const std::string& op_name);

/// Span durations grouped by name, in recording order within each name.
[[nodiscard]] std::map<std::string, std::vector<double>> durations_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
