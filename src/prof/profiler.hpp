// lgg_prof: the deterministic kernel profiler (DESIGN.md §17).
//
// Profiler implements gpusim::ProfilerHook: attach one to a driver
// (GpuTriangleOptions / HybridOptions / RunnerOptions / ServeOptions all
// carry a `prof` pointer) and every successful launch deposits a
// KernelProfile — modelled hardware counters, span-stack attribution,
// per-SM occupancy rows and derived roofline/bandwidth metrics.
// core::launch calls the hook host-serially with the launch's final
// (rescaled, when sampled) counters and report, so the profile sequence
// is a pure function of the workload and every export below is
// byte-identical at any ExecPolicy / host thread count.
//
// Exports:
//   profile_text()        flat `name{labels} value` counter file —
//                         Prometheus-flavoured, consumed by `lgg_prof
//                         diff` (ci/prom_diff contract: rtol/atol gates)
//   profile_tree_text()   human hotspot report with top-N attribution
//   counter_track_events() pre-rendered Perfetto counter events ("ph":"C")
//                         to splice into obs::chrome_trace_json
//   export_metrics()      aggregate lgg_prof_* series into obs::Metrics
//   flamegraph_text()     collapsed-stack flamegraph of the span tree
//                         (flamegraph.pl-compatible, modelled self-ns)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/executor.hpp"
#include "obs/obs.hpp"
#include "prof/profile.hpp"

namespace lgg::prof {

class Profiler final : public gpusim::ProfilerHook {
 public:
  /// `obs` (optional, non-owning) supplies the attribution stack and the
  /// modelled timestamp per launch; without a session profiles carry an
  /// empty stack and ts 0.
  explicit Profiler(obs::Session* obs = nullptr) : obs_(obs) {}

  void on_launch(const gpusim::KernelConfig& config,
                 const gpusim::DeviceSpec& dev,
                 const gpusim::LaunchCounters& counters,
                 const gpusim::KernelReport& report) override;

  [[nodiscard]] const std::vector<KernelProfile>& profiles() const noexcept {
    return profiles_;
  }

  [[nodiscard]] std::string profile_text() const;
  [[nodiscard]] std::string profile_tree_text() const;
  [[nodiscard]] std::vector<std::string> counter_track_events() const;
  void export_metrics(obs::Metrics& m) const;

 private:
  obs::Session* obs_;
  std::vector<KernelProfile> profiles_;
};

/// Collapsed-stack flamegraph text over a recorded span tree: one
/// "root;child;leaf <self_ns>" line per distinct stack with non-zero
/// modelled self time, sorted by stack path.  Feed to flamegraph.pl.
[[nodiscard]] std::string flamegraph_text(const obs::Tracer& tracer);

}  // namespace lgg::prof
