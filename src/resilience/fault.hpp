// Seed-driven fault injection for the simulated device (DESIGN.md §11).
//
// FaultInjector is the gpusim::FaultHook implementation used everywhere:
// each fault site keeps a consultation counter ("draw"), and the decision
// for draw d of site s is a pure hash of (master seed, s, d) compared
// against the configured per-site rate.  Because gpusim consults hooks
// only from host-serial code, the draw sequence — and therefore the whole
// fault pattern — is a function of the workload and the seed alone:
// independent of the host thread count and reproducible from (seed,
// rates).  resilience::run_resilient is its one consumer: the
// runner installs it on each attempt's DeviceMemory and Simulator.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gpusim/executor.hpp"
#include "gpusim/fault.hpp"

namespace lgg::resilience {

/// Per-site injection probabilities (0 disables a site, 1 always fires).
struct FaultRates {
  double alloc = 0.0;
  double launch = 0.0;
  double sm_abort = 0.0;
  double transfer = 0.0;

  /// The same rate at every site (the CLI's --faults=rate form).
  [[nodiscard]] static FaultRates uniform(double r) noexcept {
    return {r, r, r, r};
  }
  [[nodiscard]] double rate(gpusim::FaultSite site) const noexcept;
  [[nodiscard]] bool any() const noexcept {
    return alloc > 0.0 || launch > 0.0 || sm_abort > 0.0 || transfer > 0.0;
  }
};

/// One injected fault: site s fired at its draw-th consultation.  `detail`
/// is the byte count (alloc/transfer) or SM index (sm-abort); 0 for
/// launch.
struct FaultEvent {
  gpusim::FaultSite site = gpusim::FaultSite::kAlloc;
  std::uint64_t draw = 0;
  std::uint64_t detail = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

class FaultInjector final : public gpusim::FaultHook {
 public:
  /// Decisions are hashes of (seed, site, draw) against `rates`; every
  /// fired fault is recorded.  Re-running a workload on a fresh injector
  /// with the same (seed, rates) fires exactly the same events.
  FaultInjector(std::uint64_t seed, const FaultRates& rates);

  bool on_alloc(std::uint64_t bytes) override;
  bool on_launch(const gpusim::KernelConfig& config) override;
  bool on_sm_abort(const gpusim::KernelConfig& config,
                   std::uint32_t sm) override;
  bool on_transfer(std::uint64_t bytes) override;

  /// All faults fired so far, in firing order.
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  /// Consultations so far at `site` (fired or not).
  [[nodiscard]] std::uint64_t draws(gpusim::FaultSite site) const noexcept {
    return draws_[static_cast<std::size_t>(site)];
  }
  /// Faults fired so far at `site`.
  [[nodiscard]] std::uint64_t count(gpusim::FaultSite site) const noexcept {
    return counts_[static_cast<std::size_t>(site)];
  }
  [[nodiscard]] std::uint64_t total_faults() const noexcept {
    return events_.size();
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultRates& rates() const noexcept { return rates_; }

  /// Mid-run injector position for checkpoint/restart (DESIGN.md §16):
  /// per-site draw/fire counters and the fired-event log.  Restoring it
  /// onto an injector built with the same seed/rates makes the
  /// continuation's draw sequence — and therefore the whole fault
  /// pattern — identical to an uninterrupted run's.
  struct State {
    std::array<std::uint64_t, gpusim::kNumFaultSites> draws{};
    std::array<std::uint64_t, gpusim::kNumFaultSites> counts{};
    std::vector<FaultEvent> events;
  };
  [[nodiscard]] State state() const;
  void restore_state(const State& s);

 private:
  bool decide(gpusim::FaultSite site, std::uint64_t detail);

  std::uint64_t seed_ = 0;
  FaultRates rates_;
  std::array<std::uint64_t, gpusim::kNumFaultSites> draws_{};
  std::array<std::uint64_t, gpusim::kNumFaultSites> counts_{};
  std::vector<FaultEvent> events_;
};

}  // namespace lgg::resilience
