#include "resilience/fault.hpp"

#include "util/prng.hpp"

namespace lgg::resilience {

double FaultRates::rate(gpusim::FaultSite site) const noexcept {
  switch (site) {
    case gpusim::FaultSite::kAlloc:
      return alloc;
    case gpusim::FaultSite::kLaunch:
      return launch;
    case gpusim::FaultSite::kSmAbort:
      return sm_abort;
    case gpusim::FaultSite::kTransfer:
      return transfer;
  }
  return 0.0;
}

FaultInjector::FaultInjector(std::uint64_t seed, const FaultRates& rates)
    : seed_(seed), rates_(rates) {}

bool FaultInjector::decide(gpusim::FaultSite site, std::uint64_t detail) {
  const auto idx = static_cast<std::size_t>(site);
  const std::uint64_t draw = draws_[idx]++;
  bool fire = false;
  const double r = rates_.rate(site);
  if (r >= 1.0) {
    fire = true;
  } else if (r > 0.0) {
    // Stateless decision: hash (seed, site, draw).  Two SplitMix64 passes
    // decorrelate consecutive draws; >> 11 keeps 53 uniform bits, the
    // uniform01 construction used throughout the repo.
    const std::uint64_t base =
        SplitMix64(seed_ ^ (0xA0761D6478BD642Full * (idx + 1))).next();
    const std::uint64_t bits = SplitMix64(base ^ draw).next();
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    fire = u < r;
  }
  if (fire) {
    ++counts_[idx];
    events_.push_back({site, draw, detail});
  }
  return fire;
}

bool FaultInjector::on_alloc(std::uint64_t bytes) {
  return decide(gpusim::FaultSite::kAlloc, bytes);
}

bool FaultInjector::on_launch(const gpusim::KernelConfig& /*config*/) {
  return decide(gpusim::FaultSite::kLaunch, 0);
}

bool FaultInjector::on_sm_abort(const gpusim::KernelConfig& /*config*/,
                                std::uint32_t sm) {
  return decide(gpusim::FaultSite::kSmAbort, sm);
}

bool FaultInjector::on_transfer(std::uint64_t bytes) {
  return decide(gpusim::FaultSite::kTransfer, bytes);
}

FaultInjector::State FaultInjector::state() const {
  return {draws_, counts_, events_};
}

void FaultInjector::restore_state(const State& s) {
  draws_ = s.draws;
  counts_ = s.counts;
  events_ = s.events;
}

}  // namespace lgg::resilience
