// Span-based tracing over the simulation pipeline (DESIGN.md §12).
//
// A Tracer records a tree of spans — plan, schedule, launch, retry,
// failover phases of a run — positioned on the MODELLED timeline: span
// begin/end are modelled nanoseconds accumulated from the same timing
// model that prices kernels and backoff, never host wall-clock.  Every
// span is opened and closed from host-serial driver code (the parallel
// warp replay never touches the tracer), so a trace is a pure function of
// the workload and is byte-identical across ExecPolicies and host thread
// counts — the same determinism contract as KernelReport (DESIGN.md §8).
//
// Timeline semantics: spans obey stack discipline.  A child begins at its
// parent's current cursor; charge() advances the innermost open span's
// cursor by a modelled duration; closing a span sets end = cursor and
// advances the parent's cursor to it.  Sibling spans therefore tile the
// parent interval in open order — the serialized view of the pipeline.
// Parallel-device quantities (e.g. a scheduled makespan, which overlaps
// chunk kernels across SMs) are carried as span args, not as overlap.
// Host wall-clock never enters a trace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lgg::obs {

/// One key/value annotation.  `json` is the PRE-RENDERED JSON value
/// ("42", "1.5", "\"naive\"") so exporters can splice it verbatim.
struct SpanArg {
  std::string key;
  std::string json;
};

struct Span {
  std::string name;
  std::string cat;  // phase: "plan", "schedule", "launch", "retry", ...
  std::uint64_t begin_ns = 0;  // modelled time
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into Tracer::spans(); -1 = top level
  std::vector<SpanArg> args;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns - begin_ns;
  }
};

/// Complete serializable tracer state — recorded spans plus the open-span
/// stack — so a checkpoint can freeze a trace mid-run and a resumed
/// process can continue it byte-identically (DESIGN.md §16).  `open`
/// holds (span index, cursor) per open frame, innermost last; dropped
/// frames carry Tracer::kDropped as their index.
struct TracerState {
  std::vector<Span> spans;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open;
  std::uint64_t top_cursor = 0;
  std::uint64_t dropped = 0;
};

class Tracer {
 public:
  /// Sentinel id for spans dropped by the cap (all operations on it are
  /// no-ops, but the open/close pairing still advances the timeline).
  static constexpr std::size_t kDropped = ~std::size_t{0};

  /// Open a span at the innermost open span's cursor.  Returns its id, or
  /// kDropped when the span cap is reached (the frame is still tracked so
  /// charges and the matching end() keep the timeline consistent).
  std::size_t begin(std::string name, std::string cat);

  /// Advance the innermost open span's cursor (top-level cursor when no
  /// span is open) by a modelled duration.  Negative charges clamp to 0.
  void charge_s(double seconds);

  /// Attach an annotation to an open or closed span (no-op for kDropped).
  void arg(std::size_t id, std::string key, std::string json);

  /// Close the innermost open span; `id` must match it (stack
  /// discipline), except kDropped frames which close unconditionally.
  void end(std::size_t id);

  /// Current modelled cursor (the begin a span opened now would get).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t open_depth() const noexcept {
    return open_.size();
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

  /// Cap on recorded spans (default 1<<20); further begins are dropped
  /// but counted.  A pure function of the workload, so determinism holds.
  void set_span_cap(std::size_t cap) noexcept { cap_ = cap; }

  /// Snapshot the full tracer state, open frames included (checkpoints).
  [[nodiscard]] TracerState state() const;
  /// Replace this tracer's state with a snapshot (checkpoint resume).
  void restore(TracerState s);
  /// Id of the innermost open span (kDropped when none is open or the
  /// innermost frame was dropped) — what a resumed driver must end().
  [[nodiscard]] std::size_t open_top() const noexcept;

  /// Names of the currently open recorded frames, outermost first —
  /// the attribution stack a profiler hook sees at launch time (dropped
  /// frames are skipped).
  [[nodiscard]] std::vector<std::string> open_stack_names() const;

 private:
  struct Frame {
    std::size_t idx;        // kDropped when not recorded
    std::uint64_t cursor;   // where the next child/charge lands
  };
  std::vector<Span> spans_;
  std::vector<Frame> open_;
  std::uint64_t top_cursor_ = 0;
  std::size_t cap_ = std::size_t{1} << 20;
  std::size_t dropped_ = 0;
};

/// Escape a string for a JSON string literal (no surrounding quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Render a double deterministically for JSON/Prometheus output.
[[nodiscard]] std::string format_number(double v);

/// Chrome trace-event JSON (one "X" complete event per span, modelled
/// microseconds, loadable in Perfetto / chrome://tracing).  Dropped spans
/// are reported in the trace metadata.  Byte-identical across host
/// thread counts for a deterministic workload.  `extra_events` holds
/// pre-rendered JSON event objects (e.g. lgg_prof's Perfetto counter
/// tracks) spliced verbatim after the span events — empty by default, so
/// existing traces are unchanged when no extension is attached.
[[nodiscard]] std::string chrome_trace_json(
    const Tracer& tracer, const std::vector<std::string>& extra_events = {});

/// Human-readable indented span tree with modelled durations and args.
[[nodiscard]] std::string span_tree_text(const Tracer& tracer);

}  // namespace lgg::obs
