// Result records produced by the simulator: what a kernel cost and why.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gpusim/partition.hpp"

namespace lgg::gpusim {

struct DeviceSpec;

/// Memory-hazard taxonomy shared by the two lgg::sancheck passes: the
/// first six classes come from the dynamic tape analyzer (the
/// compute-sanitizer analogue over recorded access tapes), the last two
/// from the static access-pattern lint over the combinadic work division.
enum class HazardClass : std::uint8_t {
  kOutOfBounds = 0,      // address outside every allocation / off the end
  kUseAfterReset = 1,    // access through a buffer retired by reset()
  kUseBeforeAlloc = 2,   // address inside capacity but never allocated
  kUninitRead = 3,       // device read with no staging and no prior write
  kSharedRace = 4,       // same-block shared access conflict, no sync between
  kGlobalWriteConflict = 5,  // cross-warp overlapping non-atomic writes
  kFootprintEscape = 6,  // static lint: warp footprint leaves its chunk
  kSlotOverlap = 7,      // static lint: per-warp output slots collide
};
inline constexpr std::size_t kNumHazardClasses = 8;

[[nodiscard]] const char* hazard_class_name(HazardClass cls) noexcept;

/// One detected hazard.  `first_thread` / `second_thread` are simulated
/// global thread ids (second == first for single-party hazards; both are
/// npos for static-lint findings, which concern warps, not threads).
struct Hazard {
  static constexpr std::uint64_t kNoThread = ~std::uint64_t{0};
  HazardClass cls = HazardClass::kOutOfBounds;
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
  std::uint64_t first_thread = kNoThread;
  std::uint64_t second_thread = kNoThread;
  std::string message;

  friend bool operator==(const Hazard&, const Hazard&) = default;
};

/// Everything sancheck found for one launch (or one static lint pass).
/// Deterministic: hazards appear in tape-scan order — (block, thread,
/// access index) — which is independent of the host thread count; the
/// recorded list is capped but the per-class totals are always exact.
struct HazardReport {
  std::vector<Hazard> hazards;  // first `hazards.size()` in scan order
  std::uint64_t total = 0;      // all hazards found, recorded or not
  std::array<std::uint64_t, kNumHazardClasses> by_class{};

  [[nodiscard]] bool clean() const noexcept { return total == 0; }
  [[nodiscard]] std::uint64_t count(HazardClass cls) const noexcept {
    return by_class[static_cast<std::size_t>(cls)];
  }
  /// Append `other` (multi-launch aggregation, e.g. bfs_gpu's levels).
  void merge(const HazardReport& other);
};

std::ostream& operator<<(std::ostream& os, const HazardReport& r);

struct KernelReport;

/// Per-SM row of the profiler counter harvest, in fixed SM order.  The
/// busy-cycle columns are the executor's own timing terms, exposed per SM
/// so a profiler can draw the occupancy timeline on the modelled clock.
struct SmCounters {
  std::uint32_t sm = 0;
  std::uint64_t warps = 0;
  std::uint64_t global_slots = 0;
  std::uint64_t transactions = 0;
  double warp_instructions = 0.0;
  std::uint64_t bank_conflict_steps = 0;
  double compute_cycles = 0.0;
  double latency_cycles = 0.0;
  /// max(compute, latency): when this SM retires its last warp.
  double busy_cycles = 0.0;
};

/// Modelled hardware counters for one launch, harvested alongside the
/// KernelReport when Simulator::run is given somewhere to put them.
/// Accumulated per shard during the replay and merged in fixed SM order,
/// so every field is bit-identical across ExecPolicies.  Invariants (also
/// after KernelReport::rescale, which re-derives each complement from its
/// rescaled total):
///   coalesced_transactions + uncoalesced_transactions == transactions
///   coalesced_slots + uncoalesced_slots == global_slots
///   ideal_transactions + memory_replays == transactions
///   shared_accesses + shared_replays   == bank_conflict_steps
struct LaunchCounters {
  /// Global slots whose transaction count equals the CC's minimum (Table
  /// III): CC < 2.0 one aligned segment per non-empty half-warp, CC 2.0
  /// ceil(active_lanes * word_bytes / 128) cache lines.
  std::uint64_t coalesced_slots = 0;
  std::uint64_t uncoalesced_slots = 0;
  /// The same split in transaction units; sums to KernelReport::transactions.
  std::uint64_t coalesced_transactions = 0;
  std::uint64_t uncoalesced_transactions = 0;
  /// CC-minimal transactions over all slots; the excess is the modelled
  /// memory-replay count.
  std::uint64_t ideal_transactions = 0;
  std::uint64_t memory_replays = 0;
  /// Non-empty half-warp shared accesses; bank_conflict_steps beyond this
  /// are conflict replays.
  std::uint64_t shared_accesses = 0;
  std::uint64_t shared_replays = 0;
  /// Warps whose lanes recorded tapes of unequal length (lockstep broken).
  std::uint64_t divergent_warps = 0;
  std::vector<SmCounters> sms;

  /// memory_replays and shared_replays: the report's totals beyond the
  /// ideal transactions and the shared accesses.
  void derive_replays(const KernelReport& report);
};

/// Everything the timing model derived for one kernel launch.
/// Cycle quantities are in core-clock cycles; *_s values are seconds on
/// the modelled device (see gpusim/calibration.hpp and DESIGN.md §6).
struct KernelReport {
  std::string name;
  std::uint32_t blocks = 0;
  std::uint32_t threads_per_block = 0;
  std::uint64_t warps = 0;

  // -- memory traffic --
  std::uint64_t global_slots = 0;    // warp-level global access instructions
  std::uint64_t transactions = 0;    // after coalescing
  std::uint64_t bytes = 0;           // transferred by those transactions
  PartitionHistogram partition_histogram;
  double camping_factor = 1.0;

  // -- shared memory --
  std::uint64_t shared_slots = 0;
  std::uint64_t bank_conflict_steps = 0;  // serialised issue steps

  // -- compute --
  double warp_instructions = 0.0;  // summed over SMs in fixed SM order

  // -- timing decomposition (cycles) --
  double compute_cycles = 0.0;   // max over SMs of issue time
  double latency_cycles = 0.0;   // max over SMs of exposed global latency
  double dram_cycles = 0.0;      // partition-queueing DRAM bound
  double kernel_time_s = 0.0;    // max of the three, plus launch overhead

  /// 1/factor after rescale(factor); 1.0 for exact simulation.
  double sample_fraction = 1.0;

  // -- sancheck --
  /// Filled by the LaunchInspector hook when the launch ran under
  /// SancheckMode::kReport; empty (clean) otherwise.
  HazardReport hazards;

  /// Scale a test-sampled report up to the full run (the single
  /// sampled-report rescale; core::launch calls it).  Every charge scales
  /// linearly with the simulated work, so integer counters and the
  /// partition histogram's counts and total floor-scale by `factor`,
  /// instruction and cycle terms multiply, and camping_factor,
  /// kernel_time_s and sample_fraction (= 1 / factor) are re-derived.
  /// A non-null `counters` (the same launch's) scales with the report:
  /// each total floor-scales and its complement is re-derived from the
  /// rescaled report total, so the LaunchCounters invariants still hold;
  /// the per-SM rows scale like the report.  No-op for factor <= 1.
  void rescale(double factor, const DeviceSpec& dev,
               LaunchCounters* counters = nullptr);

  /// Price dram_cycles from the partition histogram (ideal steps on
  /// cached-global devices, serialised steps otherwise), then derive_time.
  void price_dram(const DeviceSpec& dev);
  /// kernel_time_s = the largest of the three cycle bounds at the core
  /// clock, plus the launch overhead.
  void derive_time(const DeviceSpec& dev);

  /// Average transactions per warp-level global access slot (1.0 is
  /// perfectly coalesced for <=64-byte-per-halfwarp patterns).
  [[nodiscard]] double transactions_per_slot() const noexcept {
    return global_slots ? static_cast<double>(transactions) /
                              static_cast<double>(global_slots)
                        : 0.0;
  }
};

std::ostream& operator<<(std::ostream& os, const KernelReport& r);

/// A host<->device copy.
struct TransferReport {
  std::uint64_t bytes = 0;
  double time_s = 0.0;
  /// Injected transfer fault: the copy "completed" but its payload bits
  /// are corrupted.  Silent on real hardware, so never an exception —
  /// callers that care must check (the resilience runner does).
  bool corrupted = false;
};

/// End-to-end accounting for a full GPU computation (copies + kernels).
struct RunReport {
  TransferReport host_to_device;
  double kernel_time_s = 0.0;    // sum over launches
  double total_time_s = 0.0;     // transfer + kernels + dispatch overheads
  std::uint64_t kernels = 0;
  std::uint64_t transactions = 0;
  double mean_camping_factor = 1.0;
  double mean_transactions_per_slot = 0.0;

  // -- fault accounting (zero unless a FaultHook was attached) --
  std::uint64_t faults_injected = 0;  // device faults that fired
  std::uint64_t retries = 0;          // launches repeated after a fault
  std::uint64_t failovers = 0;        // units abandoned to a fallback path
};

}  // namespace lgg::gpusim
