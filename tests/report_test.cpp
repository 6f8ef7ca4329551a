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

/// The same launch's LaunchCounters, with every split consistent with
/// sampled_report() (coalesced + uncoalesced == total and so on).
LaunchCounters sampled_counters() {
  LaunchCounters c;
  c.coalesced_slots = 51;
  c.uncoalesced_slots = 50;  // of 101 global slots
  c.coalesced_transactions = 131;
  c.uncoalesced_transactions = 126;  // of 257 transactions
  c.ideal_transactions = 203;
  c.memory_replays = 54;
  c.shared_accesses = 11;
  c.shared_replays = 6;  // of 17 bank-conflict steps
  c.divergent_warps = 3;
  c.sms = {{0, 7, 51, 129, 600.5, 9, 100.5, 200.25, 200.25},
           {1, 5, 50, 128, 634.0, 8, 90.25, 300.5, 300.5}};
  return c;
}

void expect_counter_invariants(const KernelReport& r, const LaunchCounters& c) {
  EXPECT_EQ(c.coalesced_slots + c.uncoalesced_slots, r.global_slots);
  EXPECT_EQ(c.coalesced_transactions + c.uncoalesced_transactions,
            r.transactions);
  EXPECT_EQ(c.ideal_transactions + c.memory_replays, r.transactions);
  EXPECT_EQ(c.shared_accesses + c.shared_replays, r.bank_conflict_steps);
}

TEST(KernelReport, RescaleAtOrBelowOneChangesNothing) {
  const DeviceSpec& dev = tesla_c1060();
  for (const double factor : {1.0, 0.5, 0.0}) {
    KernelReport r = sampled_report();
    LaunchCounters c = sampled_counters();
    r.rescale(factor, dev, &c);
    const KernelReport want = sampled_report();
    const LaunchCounters want_c = sampled_counters();
    EXPECT_EQ(c.coalesced_slots, want_c.coalesced_slots);
    EXPECT_EQ(c.uncoalesced_transactions, want_c.uncoalesced_transactions);
    EXPECT_EQ(c.memory_replays, want_c.memory_replays);
    EXPECT_EQ(c.sms[1].warps, want_c.sms[1].warps);
    EXPECT_EQ(c.sms[1].busy_cycles, want_c.sms[1].busy_cycles);
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
  LaunchCounters c = sampled_counters();
  r.rescale(3.0, dev, &c);
  // An integer factor scales every counter and per-SM row exactly.
  EXPECT_EQ(c.coalesced_slots, 153u);
  EXPECT_EQ(c.uncoalesced_slots, 150u);
  EXPECT_EQ(c.coalesced_transactions, 393u);
  EXPECT_EQ(c.uncoalesced_transactions, 378u);
  EXPECT_EQ(c.ideal_transactions, 609u);
  EXPECT_EQ(c.memory_replays, 162u);
  EXPECT_EQ(c.shared_accesses, 33u);
  EXPECT_EQ(c.shared_replays, 18u);
  EXPECT_EQ(c.divergent_warps, 9u);
  EXPECT_EQ(c.sms[0].sm, 0u);
  EXPECT_EQ(c.sms[0].warps, 21u);
  EXPECT_EQ(c.sms[0].global_slots, 153u);
  EXPECT_EQ(c.sms[0].transactions, 387u);
  EXPECT_EQ(c.sms[0].warp_instructions, 600.5 * 3.0);
  EXPECT_EQ(c.sms[0].bank_conflict_steps, 27u);
  EXPECT_EQ(c.sms[0].compute_cycles, 100.5 * 3.0);
  EXPECT_EQ(c.sms[0].latency_cycles, 200.25 * 3.0);
  EXPECT_EQ(c.sms[0].busy_cycles, 200.25 * 3.0);
  EXPECT_EQ(c.sms[1].sm, 1u);
  EXPECT_EQ(c.sms[1].warps, 15u);
  expect_counter_invariants(r, c);
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
  LaunchCounters c = sampled_counters();
  r.rescale(2.5, tesla_c1060(), &c);
  EXPECT_EQ(r.global_slots, 252u);  // 252.5
  EXPECT_EQ(r.transactions, 642u);  // 642.5
  EXPECT_EQ(r.partition_histogram.count[0], 77u);  // 77.5
  EXPECT_EQ(r.partition_histogram.total, 502u);    // 502.5
  EXPECT_EQ(r.sample_fraction, 0.4);
  EXPECT_EQ(c.coalesced_slots, 127u);  // 127.5
  EXPECT_EQ(c.divergent_warps, 7u);    // 7.5
  EXPECT_EQ(c.sms[0].warps, 17u);      // 17.5
  EXPECT_EQ(c.sms[0].transactions, 322u);  // 322.5
  expect_counter_invariants(r, c);
}

TEST(KernelReport, RescaleRederivesCounterComplements) {
  // At 2.25 every complement pair below floors to one less than its
  // floored total when both halves are scaled on their own.
  KernelReport r = sampled_report();
  LaunchCounters c = sampled_counters();
  r.rescale(2.25, tesla_c1060(), &c);
  EXPECT_EQ(r.global_slots, 227u);         // 227.25
  EXPECT_EQ(c.coalesced_slots, 114u);      // 114.75
  EXPECT_EQ(c.uncoalesced_slots, 113u);    // not floor(112.5)
  EXPECT_EQ(r.transactions, 578u);         // 578.25
  EXPECT_EQ(c.coalesced_transactions, 294u);    // 294.75
  EXPECT_EQ(c.uncoalesced_transactions, 284u);  // not floor(283.5)
  EXPECT_EQ(c.ideal_transactions, 456u);   // 456.75
  EXPECT_EQ(c.memory_replays, 122u);       // not floor(121.5)
  EXPECT_EQ(r.bank_conflict_steps, 38u);   // 38.25
  EXPECT_EQ(c.shared_accesses, 24u);       // 24.75
  EXPECT_EQ(c.shared_replays, 14u);        // not floor(13.5)
  expect_counter_invariants(r, c);
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
