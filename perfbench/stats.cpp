#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  // p * n first keeps ranks such as 99% of 1000 exact in binary.
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

TailChoice choose_tail(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(n, p);
    if (beyond >= min_beyond) return {p, beyond, true};
  }
  return {50.0, samples_beyond(n, 50.0), false};
}

double failed_frac(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double covered_ms(const Interval& outer, std::vector<Interval> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double reach = outer.start;  // end of the union so far
  for (const Interval& part : parts) {
    const double lo = std::max(part.start, reach);
    const double hi = std::min(part.end, outer.end);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, std::min(part.end, outer.end));
  }
  return covered;
}

}  // namespace perfbench
