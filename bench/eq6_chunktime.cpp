// Evaluates Eq. (6): tau_t = mu * tau_s + psi_g * tau_g — total time when
// psi_s chunk computations run from shared memory (30 at a time, mu =
// ceil(psi_s / 30) rounds) and psi_g run serially from global memory.
// tau_s and tau_g are measured from the simulator: the same per-chunk
// workload priced against shared-memory vs global-memory residency.
#include <iostream>

#include "gpusim/calibration.hpp"
#include "gpusim/executor.hpp"
#include "util/table.hpp"

namespace {

using namespace lgg;
using namespace lgg::gpusim;

/// Time one chunk's worth of work with data in shared memory.
double measure_tau_s(const DeviceSpec& dev, std::uint32_t accesses) {
  const Simulator sim(dev);
  const KernelReport r = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        for (std::uint32_t i = 0; i < accesses; ++i) {
          rec.shared_read(4ull * ((ctx.lane + i) % 512));
          rec.compute(2);
        }
      },
      {"tau_s", 1, 128});
  return r.kernel_time_s;
}

/// The same work with data in global memory (coalesced but uncached).
double measure_tau_g(const DeviceSpec& dev, std::uint32_t accesses) {
  const Simulator sim(dev);
  DeviceMemory mem(dev);
  const Buffer buf = mem.alloc(1 << 22);
  const KernelReport r = sim.run(
      [&](const ThreadCtx& ctx, ThreadRecorder& rec) {
        const std::uint64_t warp = ctx.global_id / 32;
        for (std::uint32_t i = 0; i < accesses; ++i) {
          rec.global_read(buf, ((warp * accesses + i) * 128 + 4ull * ctx.lane) %
                                   (1 << 22),
                          4);
          rec.compute(2);
        }
      },
      {"tau_g", 1, 128});
  return r.kernel_time_s;
}

}  // namespace

int main() {
  std::cout << "=== Eq. (6): tau_t = mu * tau_s + psi_g * tau_g ===\n\n";
  const DeviceSpec& dev = tesla_c1060();
  const std::uint32_t accesses = 2048;
  const double tau_s = measure_tau_s(dev, accesses);
  const double tau_g = measure_tau_g(dev, accesses);
  std::cout << "measured per-chunk times: tau_s = " << format_seconds(tau_s)
            << ", tau_g = " << format_seconds(tau_g)
            << "  (ratio " << tau_g / tau_s << "x)\n\n";

  TextTable table({"psi_s (shared chunks)", "psi_g (global chunks)", "mu",
                   "tau_t model"});
  const std::uint32_t psi_total = 60;
  for (std::uint32_t psi_g = 0; psi_g <= psi_total; psi_g += 10) {
    const std::uint32_t psi_s = psi_total - psi_g;
    const std::uint64_t mu = (psi_s + 29) / 30;  // ceil(psi_s / 30)
    const double tau_t = static_cast<double>(mu) * tau_s +
                         static_cast<double>(psi_g) * tau_g;
    table.new_row()
        .add(std::uint64_t{psi_s})
        .add(std::uint64_t{psi_g})
        .add(mu)
        .add(format_seconds(tau_t));
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: tau_t is dominated by the serial global "
               "chunks (psi_g * tau_g); Algorithm 1's objective (Eq. 5 — "
               "minimise the number of chunks that do not fit shared "
               "memory) follows directly.\n";
  return 0;
}
