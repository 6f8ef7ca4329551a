#include "gpusim/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "gpusim/calibration.hpp"
#include "gpusim/device.hpp"
#include "util/table.hpp"

namespace lgg::gpusim {

const char* hazard_class_name(HazardClass cls) noexcept {
  switch (cls) {
    case HazardClass::kOutOfBounds:
      return "out-of-bounds";
    case HazardClass::kUseAfterReset:
      return "use-after-reset";
    case HazardClass::kUseBeforeAlloc:
      return "use-before-alloc";
    case HazardClass::kUninitRead:
      return "uninitialized-read";
    case HazardClass::kSharedRace:
      return "shared-memory-race";
    case HazardClass::kGlobalWriteConflict:
      return "global-write-conflict";
    case HazardClass::kFootprintEscape:
      return "footprint-escape";
    case HazardClass::kSlotOverlap:
      return "output-slot-overlap";
  }
  return "?";
}

void HazardReport::merge(const HazardReport& other) {
  hazards.insert(hazards.end(), other.hazards.begin(), other.hazards.end());
  total += other.total;
  for (std::size_t c = 0; c < kNumHazardClasses; ++c)
    by_class[c] += other.by_class[c];
}

std::ostream& operator<<(std::ostream& os, const HazardReport& r) {
  if (r.clean()) return os << "sancheck: no hazards";
  os << "sancheck: " << r.total << " hazard(s)";
  for (std::size_t c = 0; c < kNumHazardClasses; ++c)
    if (r.by_class[c] != 0)
      os << "\n  " << hazard_class_name(static_cast<HazardClass>(c)) << ": "
         << r.by_class[c];
  for (const Hazard& h : r.hazards) os << "\n  " << h.message;
  return os;
}

void LaunchCounters::derive_replays(const KernelReport& report) {
  memory_replays = report.transactions -
                   std::min(ideal_transactions, report.transactions);
  shared_replays = report.bank_conflict_steps -
                   std::min(shared_accesses, report.bank_conflict_steps);
}

void KernelReport::rescale(double factor, const DeviceSpec& dev,
                           LaunchCounters* counters) {
  if (factor <= 1.0) return;
  const auto scale_u64 = [factor](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * factor);
  };
  global_slots = scale_u64(global_slots);
  transactions = scale_u64(transactions);
  bytes = scale_u64(bytes);
  shared_slots = scale_u64(shared_slots);
  bank_conflict_steps = scale_u64(bank_conflict_steps);
  warp_instructions *= factor;
  for (auto& c : partition_histogram.count) c = scale_u64(c);
  partition_histogram.total = scale_u64(partition_histogram.total);
  camping_factor = partition_histogram.camping_factor();
  compute_cycles *= factor;
  latency_cycles *= factor;
  dram_cycles *= factor;
  derive_time(dev);
  sample_fraction = 1.0 / factor;
  if (counters == nullptr) return;

  // Scaling both halves of a split independently would break
  // coalesced + uncoalesced == total by a rounding unit.
  LaunchCounters& c = *counters;
  c.coalesced_slots = std::min(scale_u64(c.coalesced_slots), global_slots);
  c.uncoalesced_slots = global_slots - c.coalesced_slots;
  c.coalesced_transactions =
      std::min(scale_u64(c.coalesced_transactions), transactions);
  c.uncoalesced_transactions = transactions - c.coalesced_transactions;
  c.ideal_transactions = scale_u64(c.ideal_transactions);
  c.shared_accesses = scale_u64(c.shared_accesses);
  c.divergent_warps = scale_u64(c.divergent_warps);
  c.derive_replays(*this);
  for (SmCounters& sm : c.sms) {
    sm.warps = scale_u64(sm.warps);
    sm.global_slots = scale_u64(sm.global_slots);
    sm.transactions = scale_u64(sm.transactions);
    sm.warp_instructions *= factor;
    sm.bank_conflict_steps = scale_u64(sm.bank_conflict_steps);
    sm.compute_cycles *= factor;
    sm.latency_cycles *= factor;
    sm.busy_cycles *= factor;
  }
}

void KernelReport::price_dram(const DeviceSpec& dev) {
  const std::uint64_t steps = dev.has_cached_global()
                                  ? partition_histogram.ideal_steps()
                                  : partition_histogram.serialized_steps();
  dram_cycles =
      static_cast<double>(steps) * calibration::kTransactionServiceCycles;
  derive_time(dev);
}

void KernelReport::derive_time(const DeviceSpec& dev) {
  const double cycles = std::max({compute_cycles, latency_cycles, dram_cycles});
  kernel_time_s = cycles / (dev.core_clock_ghz * 1e9) +
                  calibration::kKernelLaunchOverheadS;
}

std::ostream& operator<<(std::ostream& os, const KernelReport& r) {
  os << "kernel '" << r.name << "': " << r.blocks << "x"
     << r.threads_per_block << " (" << r.warps << " warps)"
     << "\n  global slots " << r.global_slots << ", transactions "
     << r.transactions << " (" << std::fixed << std::setprecision(2)
     << r.transactions_per_slot() << "/slot), bytes " << r.bytes
     << "\n  camping factor " << std::setprecision(3) << r.camping_factor
     << ", bank-conflict steps " << r.bank_conflict_steps
     << "\n  cycles: compute " << std::setprecision(0) << r.compute_cycles
     << ", latency " << r.latency_cycles << ", dram " << r.dram_cycles
     << "\n  time " << format_seconds(r.kernel_time_s);
  if (r.sample_fraction < 1.0)
    os << " (sampled, fraction " << std::setprecision(4) << r.sample_fraction
       << ")";
  return os;
}

std::ostream& operator<<(std::ostream& os, const RunReport& r) {
  os << "GPU run: h2d " << format_bytes(r.host_to_device.bytes) << " in "
     << format_seconds(r.host_to_device.time_s) << ", " << r.kernels
     << " kernel(s) in " << format_seconds(r.kernel_time_s) << ", total "
     << format_seconds(r.total_time_s) << ", camping x" << std::fixed
     << std::setprecision(3) << r.mean_camping_factor << ", txn/slot "
     << std::setprecision(2) << r.mean_transactions_per_slot;
  if (r.faults_injected != 0 || r.retries != 0 || r.failovers != 0)
    os << "\n  faults " << r.faults_injected << ", retries " << r.retries
       << ", failovers " << r.failovers;
  return os;
}

}  // namespace lgg::gpusim
