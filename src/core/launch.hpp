// The one launch path of the simulated GPU drivers (triangle, intersect,
// subgraph, bfs, hybrid): the options every driver shares, launch-shape
// resolution, host->device staging, and core::launch — which owns the
// sancheck analyzer, the launch span, the sampled-report rescale, the
// profiler hand-off and the gpusim counters.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/report.hpp"
#include "obs/obs.hpp"
#include "sancheck/sancheck.hpp"

namespace lgg::core {

/// The options every simulated driver takes (each driver's option struct
/// derives from this).
struct RunContext {
  /// Host-side simulator execution policy (default: parallel across host
  /// cores; results are bit-identical to serial).
  gpusim::ExecPolicy exec;
  /// Hazard analysis of every launch (sancheck/sancheck.hpp): kReport
  /// attaches a HazardReport to the launch's KernelReport, kStrict throws
  /// lgg::Error on the first hazard.
  sancheck::SancheckMode sancheck = sancheck::SancheckMode::kOff;
  /// Optional fault hook (non-owning) installed on the driver's
  /// DeviceMemory and Simulator; fired faults surface as
  /// gpusim::DeviceFault (DESIGN.md §11).
  gpusim::FaultHook* faults = nullptr;
  /// Optional observability session (non-owning): driver/plan/transfer/
  /// launch spans on the modelled timeline plus gpusim counters
  /// (DESIGN.md §12).
  obs::Session* obs = nullptr;
  /// Optional profiler (non-owning): core::launch hands it every launch's
  /// final, rescaled report and counters (DESIGN.md §17).
  gpusim::ProfilerHook* prof = nullptr;
};

/// `device`, or the paper's Tesla C1060 when null.
const gpusim::DeviceSpec& device_or_default(const gpusim::DeviceSpec* device);

/// A driver's resolved launch grid.
struct LaunchShape {
  const gpusim::DeviceSpec& dev;
  std::uint32_t blocks = 0;
  std::uint32_t threads_per_block = 0;

  [[nodiscard]] std::uint64_t threads() const noexcept {
    return static_cast<std::uint64_t>(blocks) * threads_per_block;
  }
  [[nodiscard]] std::uint64_t warps() const noexcept {
    return threads() / dev.warp_size;
  }
};

/// Resolve a driver's launch options: a null device selects the C1060,
/// blocks == 0 selects 2 x SM count, and threads_per_block must be a
/// positive multiple of the warp size (lgg::Error otherwise).
LaunchShape launch_shape(const gpusim::DeviceSpec* device,
                         std::uint32_t blocks,
                         std::uint32_t threads_per_block);

/// Price the host->device copy of `bytes` under a "transfer/h2d" span and
/// record it in the session's counters.
gpusim::TransferReport stage(const RunContext& ctx,
                             const gpusim::Simulator& sim,
                             std::uint64_t bytes);

/// The modelled end-to-end time pre + transfer + dispatch + device init
/// + kernel, summed in that order.
[[nodiscard]] double end_to_end_s(double pre_s, double transfer_s,
                                  double kernel_s) noexcept;

/// Charge the driver span the dispatch + device-init overhead and return
/// end_to_end_s(pre_s, transfer_s, kernel_s).
double finish_driver(obs::Scope& driver, double pre_s, double transfer_s,
                     double kernel_s);

/// Everything core::launch needs beyond the kernel body.
struct LaunchSpec {
  const gpusim::Simulator& sim;
  const gpusim::DeviceMemory& mem;
  gpusim::KernelConfig config;
  /// Buffers the host staged before the launch: sancheck treats every
  /// read from them as initialised.
  std::span<const gpusim::Buffer> staged{};
  /// Folds the driver's per-warp output slots after the replay and
  /// returns the sample factor total / simulated work (1 when exact or
  /// when nothing ran).  Empty: the launch is never sampled.
  std::function<double()> reduce{};
  /// Launch-span args from the final report; empty: `transactions`.
  std::function<void(obs::Scope&, const gpusim::KernelReport&)> span_args{};
};

/// Run one simulated launch: builds the sancheck analyzer over
/// `spec.staged` when sancheck is on, replays `kernel` under a "launch" span, runs
/// `spec.reduce`, rescales the report and its LaunchCounters by its factor
/// (KernelReport::rescale; no-op for factor <= 1), hands both to the
/// profiler, sets the span duration and args from the final report, and
/// records the gpusim counters.
/// Device faults propagate with the span closed and nothing recorded.
gpusim::KernelReport launch(const RunContext& ctx, const LaunchSpec& spec,
                            const gpusim::KernelFn& kernel);

/// The sample factor of a truncated run: total / simulated, or 1 when
/// nothing was simulated (there is nothing to scale).
[[nodiscard]] double sample_factor(std::uint64_t total,
                                   std::uint64_t simulated) noexcept;

}  // namespace lgg::core
