// Simulated device faults (DESIGN.md §11).
//
// Real GPU runs fail at well-known seams: cudaMalloc returns OOM, a
// kernel launch errors out, an SM hits an ECC event or the watchdog kills
// it mid-kernel, a PCIe transfer flips bits.  The simulator exposes those
// seams through one narrow interface — FaultHook — that DeviceMemory and
// Simulator take at construction and consult at each fault site.  The
// hook decides (true = inject) and owns all randomness/recording, so
// gpusim itself stays deterministic and policy-free.
// lgg::resilience::FaultInjector is the one implementation, and the
// resilient runner is the one place that installs it; the plain GPU
// drivers build their DeviceMemory and Simulator without a hook.
//
// Determinism contract: every hook call is made from the host-serial part
// of a run — allocation, launch entry, the per-SM pre-shard sweep, and
// transfer pricing — never from inside the parallel warp replay.  The call
// sequence is therefore a pure function of the workload, independent of
// the host thread count, which is what makes fault campaigns reproducible
// from their seed and their logs byte-identical across ExecPolicies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace lgg::gpusim {

struct KernelConfig;  // executor.hpp

/// Where a simulated fault strikes.
enum class FaultSite : std::uint8_t {
  kAlloc = 0,     // device allocation fails (transient OOM)
  kLaunch = 1,    // kernel launch error before any warp runs
  kSmAbort = 2,   // one SM aborts mid-replay (ECC event / watchdog)
  kTransfer = 3,  // host<->device copy silently corrupts payload bits
};
inline constexpr std::size_t kNumFaultSites = 4;

[[nodiscard]] const char* fault_site_name(FaultSite site) noexcept;

/// Thrown by DeviceMemory / Simulator when an injected fault fires at a
/// site that surfaces as an error on real hardware (alloc, launch, SM
/// abort).  Derives from lgg::Error so existing handlers keep working;
/// the distinct type is what lets a recovery layer classify the failure
/// as transient-device rather than logic and retry it.  Transfer
/// corruption is deliberately NOT an exception: real bit-flips are
/// silent, so they surface as TransferReport::corrupted instead.
class DeviceFault : public Error {
 public:
  DeviceFault(FaultSite site, const std::string& what)
      : Error(what), site_(site) {}
  [[nodiscard]] FaultSite site() const noexcept { return site_; }

 private:
  FaultSite site_;
};

/// Abort boundary of one aborted SM: how many of the warps its shard
/// visits (in program order — block sm, sm + sm_count, ..., warps in
/// increasing index within each block) completed before the SM died.
/// Warps before the boundary ran to completion, so their per-warp output
/// slots hold exactly what a fault-free launch would have written; warps
/// at or past it never ran.
struct SmAbortInfo {
  std::uint32_t sm = 0;
  std::uint64_t warps_completed = 0;  // replayed before the abort
  std::uint64_t warps_total = 0;      // the shard's full warp count
};

/// The SM-abort flavour of DeviceFault, carrying the per-SM abort
/// boundaries so a recovery layer can salvage the completed warps'
/// outputs instead of discarding the whole launch (DESIGN.md §16).
class SmAbortFault : public DeviceFault {
 public:
  SmAbortFault(const std::string& what, std::vector<SmAbortInfo> aborts)
      : DeviceFault(FaultSite::kSmAbort, what), aborts_(std::move(aborts)) {}
  /// One entry per aborted SM, in SM order.
  [[nodiscard]] const std::vector<SmAbortInfo>& aborts() const noexcept {
    return aborts_;
  }

 private:
  std::vector<SmAbortInfo> aborts_;
};

/// Decision interface consulted at each fault site.  Implementations may
/// keep state (draw counters, event logs); all calls are host-serial (see
/// the header comment), so no synchronisation is required.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  /// true: the allocation of `bytes` fails with a DeviceFault OOM.
  virtual bool on_alloc(std::uint64_t bytes) = 0;
  /// true: the launch fails with a DeviceFault before any warp replays.
  virtual bool on_launch(const KernelConfig& config) = 0;
  /// Called once per OCCUPIED SM (sm < min(blocks, sm_count)), in SM
  /// order, before the shards run.  true: that SM aborts after replaying
  /// half its warps, and the launch throws SmAbortFault after all shards
  /// finish.  The fault carries each aborted SM's abort boundary: warps
  /// before it completed (their output slots are exact), warps past it
  /// never ran — callers either salvage against those boundaries or treat
  /// the launch's outputs as garbage.
  virtual bool on_sm_abort(const KernelConfig& config, std::uint32_t sm) = 0;
  /// true: the transfer completes but its payload is corrupted; reported
  /// via TransferReport::corrupted, never thrown.
  virtual bool on_transfer(std::uint64_t bytes) = 0;
};

}  // namespace lgg::gpusim
