#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "gpusim/calibration.hpp"
#include "gpusim/device.hpp"
#include "gpusim/report.hpp"

namespace lgg::gpusim {
namespace {

TEST(KernelReport, StreamOperatorMentionsKeyFields) {
  KernelReport r;
  r.name = "demo-kernel";
  r.blocks = 60;
  r.threads_per_block = 128;
  r.warps = 240;
  r.global_slots = 100;
  r.transactions = 250;
  r.bytes = 16000;
  r.camping_factor = 1.25;
  r.kernel_time_s = 0.00234;
  std::ostringstream os;
  os << r;
  const std::string s = os.str();
  EXPECT_NE(s.find("demo-kernel"), std::string::npos);
  EXPECT_NE(s.find("240 warps"), std::string::npos);
  EXPECT_NE(s.find("2.50/slot"), std::string::npos);  // transactions/slot
  EXPECT_NE(s.find("1.25"), std::string::npos);
  EXPECT_NE(s.find("ms"), std::string::npos);
}

TEST(KernelReport, SampledRunsAnnotated) {
  KernelReport r;
  r.sample_fraction = 0.25;
  std::ostringstream os;
  os << r;
  EXPECT_NE(os.str().find("sampled"), std::string::npos);
}

TEST(KernelReport, TransactionsPerSlotSafeOnEmpty) {
  const KernelReport r;
  EXPECT_DOUBLE_EQ(r.transactions_per_slot(), 0.0);
}

/// A launch-shaped report with distinct, odd-valued fields, whose
/// camping factor and kernel time are deliberately stale so a rescale
/// must re-derive them.
KernelReport sampled_report() {
  KernelReport r;
  r.name = "sampled";
  r.blocks = 60;
  r.threads_per_block = 128;
  r.warps = 240;
  r.global_slots = 101;
  r.transactions = 257;
  r.bytes = 16447;
  r.partition_histogram.count = {31, 29, 37, 41, 23, 19, 43, 34};
  r.partition_histogram.total = 201;  // scaled on its own, not summed
  r.camping_factor = 99.0;
  r.shared_slots = 13;
  r.bank_conflict_steps = 17;
  r.warp_instructions = 1234.5;
  r.compute_cycles = 1000.25;
  r.latency_cycles = 3000.5;
  r.dram_cycles = 2000.75;
  r.kernel_time_s = 123.0;
  return r;
}

TEST(KernelReport, RescaleAtOrBelowOneChangesNothing) {
  const DeviceSpec& dev = tesla_c1060();
  for (const double factor : {1.0, 0.5, 0.0}) {
    KernelReport r = sampled_report();
    r.rescale(factor, dev);
    const KernelReport want = sampled_report();
    EXPECT_EQ(r.global_slots, want.global_slots);
    EXPECT_EQ(r.transactions, want.transactions);
    EXPECT_EQ(r.bytes, want.bytes);
    EXPECT_EQ(r.partition_histogram.count, want.partition_histogram.count);
    EXPECT_EQ(r.partition_histogram.total, want.partition_histogram.total);
    EXPECT_EQ(r.camping_factor, want.camping_factor);
    EXPECT_EQ(r.shared_slots, want.shared_slots);
    EXPECT_EQ(r.bank_conflict_steps, want.bank_conflict_steps);
    EXPECT_EQ(r.warp_instructions, want.warp_instructions);
    EXPECT_EQ(r.compute_cycles, want.compute_cycles);
    EXPECT_EQ(r.latency_cycles, want.latency_cycles);
    EXPECT_EQ(r.dram_cycles, want.dram_cycles);
    EXPECT_EQ(r.kernel_time_s, want.kernel_time_s);
    EXPECT_EQ(r.sample_fraction, 1.0);
  }
}

TEST(KernelReport, RescaleScalesCountersAndRederivesTiming) {
  const DeviceSpec& dev = tesla_c1060();
  KernelReport r = sampled_report();
  r.rescale(3.0, dev);
  EXPECT_EQ(r.name, "sampled");
  EXPECT_EQ(r.warps, 240u);  // launch shape is not a sampled quantity
  EXPECT_EQ(r.global_slots, 303u);
  EXPECT_EQ(r.transactions, 771u);
  EXPECT_EQ(r.bytes, 49341u);
  EXPECT_EQ(r.shared_slots, 39u);
  EXPECT_EQ(r.bank_conflict_steps, 51u);
  EXPECT_EQ(r.partition_histogram.count,
            (std::vector<std::uint64_t>{93, 87, 111, 123, 69, 57, 129, 102}));
  EXPECT_EQ(r.partition_histogram.total, 603u);
  EXPECT_EQ(r.camping_factor, r.partition_histogram.camping_factor());
  EXPECT_EQ(r.warp_instructions, 1234.5 * 3.0);
  EXPECT_EQ(r.compute_cycles, 1000.25 * 3.0);
  EXPECT_EQ(r.latency_cycles, 3000.5 * 3.0);
  EXPECT_EQ(r.dram_cycles, 2000.75 * 3.0);
  EXPECT_EQ(r.kernel_time_s, 3000.5 * 3.0 / (dev.core_clock_ghz * 1e9) +
                                 calibration::kKernelLaunchOverheadS);
  EXPECT_EQ(r.sample_fraction, 1.0 / 3.0);
}

TEST(KernelReport, RescaleFloorsFractionalCounters) {
  KernelReport r = sampled_report();
  r.rescale(2.5, tesla_c1060());
  EXPECT_EQ(r.global_slots, 252u);  // 252.5
  EXPECT_EQ(r.transactions, 642u);  // 642.5
  EXPECT_EQ(r.partition_histogram.count[0], 77u);  // 77.5
  EXPECT_EQ(r.partition_histogram.total, 502u);    // 502.5
  EXPECT_EQ(r.sample_fraction, 0.4);
}

TEST(RunReport, StreamOperator) {
  RunReport r;
  r.host_to_device = {1 << 20, 0.001};
  r.kernels = 3;
  r.kernel_time_s = 0.5;
  r.total_time_s = 0.75;
  r.mean_camping_factor = 1.1;
  std::ostringstream os;
  os << r;
  EXPECT_NE(os.str().find("3 kernel(s)"), std::string::npos);
  EXPECT_NE(os.str().find("1.00 MiB"), std::string::npos);
}

TEST(Calibration, ConstantsAreSane) {
  namespace cal = calibration;
  // The calibration must stay physically plausible; these bounds guard
  // against accidental unit slips (s vs ms, cycles vs ns).
  EXPECT_GT(cal::kCpuClockGhz, 1.0);
  EXPECT_LT(cal::kCpuClockGhz, 5.0);
  EXPECT_GT(cal::kCpuCyclesPerTest, 10.0);
  EXPECT_LT(cal::kCpuCyclesPerTest, 5000.0);
  EXPECT_GT(cal::kKernelLaunchOverheadS, 1e-7);
  EXPECT_LT(cal::kKernelLaunchOverheadS, 1e-3);
  EXPECT_GT(cal::kDeviceInitOverheadS, 0.01);
  EXPECT_LT(cal::kDeviceInitOverheadS, 2.0);
  EXPECT_GE(cal::kCyclesPerWarpInstruction, 1.0);
}

}  // namespace
}  // namespace lgg::gpusim
