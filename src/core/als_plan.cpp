#include "core/als_plan.hpp"

#include <algorithm>
#include <cmath>

#include "combi/binomial.hpp"
#include "util/error.hpp"

namespace lgg::core {

using combi::binomial;

std::uint64_t als_tests_for_x(std::uint32_t s, std::uint32_t x) noexcept {
  return binomial(s - 1 - x, 2);
}

std::uint64_t als_total_tests(std::uint32_t s, std::uint32_t x_max) noexcept {
  // Hockey stick: sum_{x=0}^{x_max-1} C(s-1-x, 2) = C(s,3) - C(s-x_max,3).
  return binomial(s, 3) - binomial(s - x_max, 3);
}

AlsPlan build_als_plan(const graph::Graph& g) {
  AlsPlan plan;
  const std::vector<graph::LevelDecomposition> components =
      graph::component_levels(g);
  plan.num_components = components.size();

  for (std::uint32_t c = 0; c < components.size(); ++c) {
    const graph::LevelDecomposition& levels = components[c];
    // BFS touches each component edge twice plus each vertex once.
    for (const auto& level : levels.levels())
      for (const graph::Vertex v : level) plan.bfs_edges_visited += g.degree(v);
    for (const graph::AdjacentLevelSet& als :
         graph::adjacent_level_sets(levels)) {
      AlsJob job;
      job.component = c;
      job.first_level = als.first_level_index;
      job.local_to_global.reserve(als.size());
      job.local_to_global.insert(job.local_to_global.end(), als.first.begin(),
                                 als.first.end());
      job.local_to_global.insert(job.local_to_global.end(),
                                 als.second.begin(), als.second.end());
      job.a = static_cast<std::uint32_t>(als.first.size());
      job.s = static_cast<std::uint32_t>(als.size());
      if (job.s >= 3) {
        job.x_max = als.is_last ? job.s - 2
                                : std::min(job.a, job.s - 2);
        job.tests = als_total_tests(job.s, job.x_max);
      }
      job.test_offset = plan.total_tests;
      LGG_CHECK(job.tests != combi::kBinomialOverflow &&
                    plan.total_tests <= ~std::uint64_t{0} - job.tests,
                "ALS test count overflows 64 bits");
      plan.total_tests += job.tests;
      plan.jobs.push_back(std::move(job));
    }
  }
  return plan;
}

namespace {

/// Largest n with n(n-1)(n-2) < 2^64: up to here C(n, 3) is exact in
/// plain 64-bit arithmetic.
constexpr std::uint64_t kChoose3Exact64 = 2642246;

/// C(n, 3) for the decode's binary search, which evaluates it O(log s)
/// times per test: a product and a division by a constant while the
/// product fits, the general 128-bit binomial above that.
std::uint64_t choose3(std::uint64_t n) noexcept {
  if (n < 3) return 0;
  if (n <= kChoose3Exact64) return n * (n - 1) * (n - 2) / 6;
  return binomial(n, 3);
}

/// Unrank a 2-combination of [0, m) from its lexicographic index:
/// pairs with first element f occupy a block of (m - 1 - f) indices.
/// Closed-form via the quadratic formula, with integer fix-up.
void unrank_pair(std::uint64_t index, std::uint32_t m, std::uint32_t& first,
                 std::uint32_t& second) {
  // cumulative(f) = sum_{t<f} (m-1-t) = f*m - f(f+1)/2; find the largest f
  // with cumulative(f) <= index.
  const double mf = static_cast<double>(m);
  const double disc = (2.0 * mf - 1.0) * (2.0 * mf - 1.0) -
                      8.0 * static_cast<double>(index);
  auto f = static_cast<std::int64_t>(
      (2.0 * mf - 1.0 - std::sqrt(std::max(disc, 0.0))) / 2.0);
  f = std::max<std::int64_t>(f - 2, 0);
  auto cumulative = [m](std::uint64_t t) {
    return t * m - t * (t + 1) / 2;
  };
  while (f + 1 < m && cumulative(static_cast<std::uint64_t>(f + 1)) <= index)
    ++f;
  first = static_cast<std::uint32_t>(f);
  second = static_cast<std::uint32_t>(
      f + 1 +
      (index - cumulative(static_cast<std::uint64_t>(f))));
}

}  // namespace

TestTriple als_decode_test(const AlsJob& job, std::uint64_t local_index) {
  LGG_CHECK(local_index < job.tests,
            "als_decode_test: index " << local_index << " >= " << job.tests);
  // cumulative(x) = C(s,3) - C(s-x,3); binary search the largest x with
  // cumulative(x) <= local_index.
  const std::uint64_t c_s3 = choose3(job.s);
  std::uint32_t lo = 0, hi = job.x_max;  // invariant: cum(lo) <= idx < cum(hi)
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint64_t cum = c_s3 - choose3(job.s - mid);
    if (cum <= local_index)
      lo = mid;
    else
      hi = mid;
  }
  TestTriple t;
  t.x = lo;
  const std::uint64_t before = c_s3 - choose3(job.s - lo);
  const std::uint64_t pair_index = local_index - before;

  // (y, z) is the pair_index-th 2-combination of (x, s) — shift by x+1.
  std::uint32_t first = 0, second = 0;
  unrank_pair(pair_index, job.s - 1 - t.x, first, second);
  t.y = t.x + 1 + first;
  t.z = t.x + 1 + second;
  return t;
}

std::uint64_t als_test_index(const AlsJob& job, const TestTriple& t) {
  LGG_CHECK(t.x < t.y && t.y < t.z && t.z < job.s && t.x < job.x_max,
            "als_test_index: invalid triple (" << t.x << "," << t.y << ","
                                               << t.z << ") for s=" << job.s
                                               << " x_max=" << job.x_max);
  const std::uint64_t before = binomial(job.s, 3) - binomial(job.s - t.x, 3);
  const std::uint32_t m = job.s - 1 - t.x;  // pair domain size
  const std::uint64_t f = t.y - t.x - 1;
  const std::uint64_t pair_index =
      f * m - f * (f + 1) / 2 + (t.z - t.y - 1);
  return before + pair_index;
}

bool als_advance_test(const AlsJob& job, TestTriple& t) noexcept {
  if (t.z + 1 < job.s) {
    ++t.z;
    return true;
  }
  if (t.y + 2 < job.s) {
    ++t.y;
    t.z = t.y + 1;
    return true;
  }
  if (t.x + 1 < job.x_max && t.x + 3 < job.s + 0u) {
    ++t.x;
    t.y = t.x + 1;
    t.z = t.x + 2;
    return true;
  }
  return false;
}

}  // namespace lgg::core
