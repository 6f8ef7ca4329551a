// Order statistics and failure accounting for the host-wall benchmark.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the sample at 1-based rank ceil(p/100 * n), so every
// reported latency is one that was actually observed.  The tail rule
// follows the benchmark's reporting contract: a timing is reported as its
// median plus the highest percentile that still has at least ten samples
// strictly beyond it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile among n samples
/// (clamped to [1, n]; n must be > 0).
[[nodiscard]] std::size_t nearest_rank(std::size_t n, double p);

/// Nearest-rank p-th percentile (p in [0, 100]); 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] double median(std::vector<double> samples);

/// Samples strictly beyond the p-th percentile's rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of a fixed ladder (99.9, 99, 95, 90, 75, 50)
/// with at least `min_beyond` samples beyond it.  `found` is false when
/// not even the median qualifies (then `pct` is 50).
struct TailChoice {
  double pct = 50.0;
  std::size_t beyond = 0;
  bool found = false;
};
[[nodiscard]] TailChoice choose_tail(std::size_t n,
                                     std::size_t min_beyond = 10);

/// failed / attempted, 0 when nothing was attempted.
[[nodiscard]] double failed_frac(std::uint64_t attempted,
                                 std::uint64_t failed);

/// Closed interval on the benchmark clock, in milliseconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `parts` clipped to `outer`.
[[nodiscard]] double covered_ms(const Interval& outer,
                                std::vector<Interval> parts);

}  // namespace perfbench
