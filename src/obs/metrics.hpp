// Metrics registry: counters + fixed-bucket histograms (DESIGN.md §12).
//
// The registry aggregates what the simulator already measures — global
// access slots vs coalesced transactions, partition-camping serialized
// steps, shared-bank conflicts, occupancy, sancheck hazard totals, fault
// events by site, retry counts — into named series a user can diff across
// runs or scrape.  Series live in ordered maps keyed by full name
// (family plus optional Prometheus-style label set), so the text export
// is independent of registration order and, for a deterministic workload,
// byte-identical across host thread counts.
//
// Naming follows Prometheus conventions: families are snake_case with a
// unit suffix, monotonic counters end in `_total`, and labels are passed
// as a pre-rendered `k="v"[,k="v"...]` string.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lgg::obs {

/// Fixed-bucket histogram (cumulative on export, like Prometheus).
struct Histogram {
  std::vector<double> bounds;        // ascending upper bounds; +Inf implied
  std::vector<std::uint64_t> count;  // per bucket, NOT cumulative here
  std::uint64_t observations = 0;
  double sum = 0.0;

  void observe(double value);
};

/// Complete serializable registry state for checkpoint/restart
/// (DESIGN.md §16).  Doubles must round-trip exactly, so checkpoint
/// encoders store them as bit patterns.
struct MetricsState {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> counters_f;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, std::string> help;
};

class Metrics {
 public:
  /// Add `delta` to integer counter `name{labels}` (created at 0).
  void count(std::string_view name, std::uint64_t delta = 1,
             std::string_view labels = "");
  /// Add `delta` to floating-point counter `name{labels}` (e.g. modelled
  /// seconds).  A family must stay either integer or floating, not both.
  void count_f(std::string_view name, double delta,
               std::string_view labels = "");
  /// Set gauge `name{labels}` to `value`.
  void gauge(std::string_view name, double value,
             std::string_view labels = "");
  /// Observe `value` into histogram `name{labels}`; `bounds` fixes the
  /// buckets on first use (later calls may pass empty).
  void observe(std::string_view name, double value,
               std::span<const double> bounds = {},
               std::string_view labels = "");
  /// Attach a HELP line to family `name` (no labels).
  void help(std::string_view name, std::string_view text);

  // -- accessors (tests, benches, CLI cross-checks) --
  [[nodiscard]] std::uint64_t counter_value(
      std::string_view name, std::string_view labels = "") const;
  [[nodiscard]] double counter_f_value(std::string_view name,
                                       std::string_view labels = "") const;
  [[nodiscard]] double gauge_value(std::string_view name,
                                   std::string_view labels = "") const;
  [[nodiscard]] bool empty() const noexcept;

  /// Prometheus text exposition (sorted by family, then series).
  [[nodiscard]] std::string prometheus_text() const;

  /// Snapshot every series (checkpoints).
  [[nodiscard]] MetricsState state() const;
  /// Replace the registry's contents with a snapshot (checkpoint resume).
  void restore(MetricsState s);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> counters_f_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace lgg::obs
