// KernelProfile: one launch's modelled hardware-counter harvest
// (DESIGN.md §17).
//
// A profile is the per-launch roll-up of a launch's final LaunchCounters
// and KernelReport plus attribution (the obs span stack open at launch
// time) and derived metrics (achieved vs peak bandwidth, a roofline
// classification, per-SM occupancy rows on the modelled clock).  Every
// field is a pure function of the workload, so profiles — and every
// export derived from them — are byte-identical at any ExecPolicy and
// host thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/report.hpp"

namespace lgg::prof {

/// Which timing term dominates the launch (the executor prices a kernel
/// as max(compute, latency, dram) cycles; see executor.hpp).
enum class RooflineClass : std::uint8_t {
  kCompute = 0,   // instruction issue bound
  kLatency = 1,   // global-latency bound (too few resident warps)
  kMemory = 2,    // DRAM transaction bound (coalescing / camping)
};

[[nodiscard]] const char* roofline_name(RooflineClass c) noexcept;

struct KernelProfile {
  // --- identity + attribution ---
  std::string name;
  std::uint64_t launch = 0;        ///< 0-based index within the Profiler
  /// obs span names open when the launch ran, outermost first — the
  /// ALS-plan attribution path (e.g. resilient/run; chunk[3]; chunk/shared).
  std::vector<std::string> stack;
  std::uint64_t ts_ns = 0;         ///< modelled begin of the launch

  // --- launch configuration ---
  std::uint32_t blocks = 0;
  std::uint32_t threads_per_block = 0;
  std::uint64_t warps = 0;
  double sample_fraction = 1.0;

  // --- raw counters (LaunchCounters + KernelReport, same invariants) ---
  std::uint64_t global_slots = 0;
  std::uint64_t coalesced_slots = 0;
  std::uint64_t uncoalesced_slots = 0;
  std::uint64_t transactions = 0;
  std::uint64_t coalesced_transactions = 0;
  std::uint64_t uncoalesced_transactions = 0;
  std::uint64_t ideal_transactions = 0;
  std::uint64_t memory_replays = 0;
  std::uint64_t bytes = 0;
  std::uint64_t shared_slots = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t bank_conflict_steps = 0;
  std::uint64_t shared_replays = 0;
  std::uint64_t divergent_warps = 0;
  double warp_instructions = 0.0;

  // --- partition camping (Figs. 6/7) ---
  std::vector<std::uint64_t> partition_pressure;  ///< transactions per partition
  std::uint64_t partition_total = 0;
  std::uint64_t partition_serialized_steps = 0;
  std::uint64_t partition_ideal_steps = 0;
  double camping_factor = 1.0;

  // --- timing + device context ---
  double compute_cycles = 0.0;
  double latency_cycles = 0.0;
  double dram_cycles = 0.0;
  double kernel_time_s = 0.0;
  std::string device;
  std::string cc;
  bool cached_global = false;      ///< CC >= 2.0: dram priced at ideal steps
  double core_clock_ghz = 0.0;
  double peak_bandwidth_gbps = 0.0;
  std::uint32_t sm_count = 0;
  std::uint32_t max_warps_per_sm = 0;

  /// Per-SM occupancy timeline rows, fixed SM order (busy_cycles is when
  /// the SM retires its last warp on the modelled clock).
  std::vector<gpusim::SmCounters> sms;

  // --- derived (recomputed by finalize()) ---
  double achieved_bandwidth_gbps = 0.0;
  double bandwidth_fraction = 0.0;
  /// Mean resident-warp occupancy over the SMs the launch occupied.
  double occupancy = 0.0;
  RooflineClass roofline = RooflineClass::kCompute;

  /// camping conflicts: serialized steps beyond the balanced ideal.
  [[nodiscard]] std::uint64_t camping_conflict_steps() const noexcept {
    return partition_serialized_steps -
           (partition_ideal_steps < partition_serialized_steps
                ? partition_ideal_steps
                : partition_serialized_steps);
  }

  /// The attribution path as "a;b;c" ("(root)" when no span was open).
  [[nodiscard]] std::string stack_path() const;

  /// Recompute the derived metrics from the raw counters.
  void finalize();
};

}  // namespace lgg::prof
