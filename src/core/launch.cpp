#include "core/launch.hpp"

#include <optional>
#include <utility>

#include "gpusim/calibration.hpp"
#include "util/error.hpp"

namespace lgg::core {

namespace cal = gpusim::calibration;

const gpusim::DeviceSpec& device_or_default(const gpusim::DeviceSpec* device) {
  return device ? *device : gpusim::tesla_c1060();
}

LaunchShape launch_shape(const gpusim::DeviceSpec* device,
                         std::uint32_t blocks,
                         std::uint32_t threads_per_block) {
  const gpusim::DeviceSpec& dev = device_or_default(device);
  LGG_CHECK(threads_per_block >= dev.warp_size &&
                threads_per_block % dev.warp_size == 0,
            "threads_per_block must be a positive multiple of the warp size");
  return {dev, blocks ? blocks : 2 * dev.sm_count, threads_per_block};
}

gpusim::TransferReport stage(const RunContext& ctx,
                             const gpusim::Simulator& sim,
                             std::uint64_t bytes) {
  gpusim::TransferReport transfer;
  {
    obs::Scope span(ctx.obs, "transfer/h2d", "transfer");
    transfer = sim.transfer(bytes);
    span.model_s(transfer.time_s);
    if (span) span.arg("bytes", transfer.bytes);
  }
  obs::record_transfer(ctx.obs, transfer);
  return transfer;
}

double end_to_end_s(double pre_s, double transfer_s,
                    double kernel_s) noexcept {
  return pre_s + transfer_s + cal::kDispatchOverheadS +
         cal::kDeviceInitOverheadS + kernel_s;
}

double finish_driver(obs::Scope& driver, double pre_s, double transfer_s,
                     double kernel_s) {
  driver.model_s(cal::kDispatchOverheadS + cal::kDeviceInitOverheadS);
  return end_to_end_s(pre_s, transfer_s, kernel_s);
}

gpusim::KernelReport launch(const RunContext& ctx, const LaunchSpec& spec,
                            const gpusim::KernelFn& kernel) {
  std::optional<sancheck::TapeAnalyzer> analyzer;
  if (ctx.sancheck != sancheck::SancheckMode::kOff) {
    sancheck::SancheckConfig sc;
    sc.mode = ctx.sancheck;
    sc.staged.assign(spec.staged.begin(), spec.staged.end());
    analyzer.emplace(std::move(sc), spec.mem);
  }

  gpusim::KernelReport report;
  {
    obs::Scope span(ctx.obs, spec.config.name, "launch");
    gpusim::LaunchCounters counters;
    report = spec.sim.run(kernel, spec.config, ctx.exec,
                          analyzer ? &*analyzer : nullptr, &counters);
    report.rescale(spec.reduce ? spec.reduce() : 1.0, spec.sim.spec(),
                   &counters);

    // The profile, span duration and counters all see the FINAL
    // (post-rescale) report, so every export matches the KernelReport the
    // caller sees.  The profiler runs before the span is charged: its
    // timestamp is the launch start.
    if (ctx.prof != nullptr)
      ctx.prof->on_launch(spec.config, spec.sim.spec(), counters, report);
    span.model_s(report.kernel_time_s);
    if (span) {
      if (spec.span_args)
        spec.span_args(span, report);
      else
        span.arg("transactions", report.transactions);
    }
  }
  obs::record_kernel(ctx.obs, report);
  return report;
}

double sample_factor(std::uint64_t total, std::uint64_t simulated) noexcept {
  return simulated == 0
             ? 1.0
             : static_cast<double>(total) / static_cast<double>(simulated);
}

}  // namespace lgg::core
