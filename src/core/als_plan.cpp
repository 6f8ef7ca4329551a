#include "core/als_plan.hpp"

#include <algorithm>
#include <cmath>

#include "combi/binomial.hpp"

namespace lgg::core {

namespace {

// C(s, 3) passes 2^64 at s ~ 4.77M while the differences the test space
// needs (a job's count, a cumulative count below an index) still fit, so
// they are taken in 128 bits.  The __extension__ marker silences
// -Wpedantic, as in combi/binomial.cpp.
__extension__ typedef unsigned __int128 U128;

/// Largest n with n(n-1)(n-2) < 2^64: up to here C(n, 3) is exact in
/// plain 64-bit arithmetic.
constexpr std::uint64_t kChoose3Exact64 = 2642246;

/// C(n, 3) in Word: exact for std::uint64_t while n <= kChoose3Exact64,
/// and for U128 at every n < 2^32 (the product stays under 2^96).
template <typename Word>
Word choose3(std::uint64_t n) noexcept {
  if (n < 3) return 0;
  return static_cast<Word>(n) * (n - 1) * (n - 2) / 6;
}

/// The decode's binary search, in Word: the largest x < x_max whose
/// cumulative count C(s,3) - C(s-x,3) is <= index; `before` receives that
/// count.
template <typename Word>
std::uint32_t search_x(std::uint32_t s, std::uint32_t x_max,
                       std::uint64_t index, std::uint64_t& before) noexcept {
  const Word c_s3 = choose3<Word>(s);
  std::uint32_t lo = 0, hi = x_max;  // invariant: cum(lo) <= idx < cum(hi)
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (c_s3 - choose3<Word>(s - mid) <= index)
      lo = mid;
    else
      hi = mid;
  }
  before = static_cast<std::uint64_t>(c_s3 - choose3<Word>(s - lo));
  return lo;
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

std::uint64_t als_total_tests(std::uint32_t s, std::uint32_t x_max) noexcept {
  // Hockey stick: sum_{x=0}^{x_max-1} C(s-1-x, 2) = C(s,3) - C(s-x_max,3).
  const U128 total = choose3<U128>(s) - choose3<U128>(s - x_max);
  return total >= combi::kBinomialOverflow
             ? combi::kBinomialOverflow
             : static_cast<std::uint64_t>(total);
}

std::uint64_t append_als_jobs(const graph::LevelDecomposition& levels,
                              std::uint32_t component, std::uint32_t first,
                              std::uint32_t last, std::uint64_t offset,
                              std::vector<AlsJob>& jobs) {
  const std::size_t depth = levels.num_levels();
  LGG_ASSERT(first <= last && last < depth);
  const auto append = [&](std::uint32_t l, bool component_last) {
    const std::span<const graph::Vertex> a_level = levels.level(l);
    const std::span<const graph::Vertex> b_level =
        l + 1 < depth ? levels.level(l + 1) : std::span<const graph::Vertex>{};
    AlsJob job;
    job.component = component;
    job.first_level = l;
    job.local_to_global.reserve(a_level.size() + b_level.size());
    job.local_to_global.insert(job.local_to_global.end(), a_level.begin(),
                               a_level.end());
    job.local_to_global.insert(job.local_to_global.end(), b_level.begin(),
                               b_level.end());
    job.a = static_cast<std::uint32_t>(a_level.size());
    job.s = static_cast<std::uint32_t>(job.local_to_global.size());
    if (job.s >= 3) {
      job.x_max = component_last ? job.s - 2 : std::min(job.a, job.s - 2);
      job.tests = als_total_tests(job.s, job.x_max);
    }
    job.test_offset = offset;
    LGG_CHECK(job.tests != combi::kBinomialOverflow &&
                  offset <= ~std::uint64_t{0} - job.tests,
              "ALS test count overflows 64 bits");
    offset += job.tests;
    jobs.push_back(std::move(job));
  };
  if (first == last) {
    append(first, /*component_last=*/true);
    return offset;
  }
  for (std::uint32_t l = first; l < last; ++l) append(l, l + 2 == depth);
  return offset;
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
    plan.total_tests = append_als_jobs(
        levels, c, 0, static_cast<std::uint32_t>(levels.num_levels() - 1),
        plan.total_tests, plan.jobs);
  }
  return plan;
}

TestTriple als_decode_test(const AlsJob& job, std::uint64_t local_index) {
  LGG_CHECK(local_index < job.tests,
            "als_decode_test: index " << local_index << " >= " << job.tests);
  std::uint64_t before = 0;
  TestTriple t;
  t.x = job.s <= kChoose3Exact64
            ? search_x<std::uint64_t>(job.s, job.x_max, local_index, before)
            : search_x<U128>(job.s, job.x_max, local_index, before);

  // (y, z) is the (local_index - before)-th 2-combination of (x, s) —
  // shift by x+1.
  std::uint32_t first = 0, second = 0;
  unrank_pair(local_index - before, job.s - 1 - t.x, first, second);
  t.y = t.x + 1 + first;
  t.z = t.x + 1 + second;
  return t;
}

std::uint64_t als_test_index(const AlsJob& job, const TestTriple& t) {
  LGG_CHECK(t.x < t.y && t.y < t.z && t.z < job.s && t.x < job.x_max,
            "als_test_index: invalid triple (" << t.x << "," << t.y << ","
                                               << t.z << ") for s=" << job.s
                                               << " x_max=" << job.x_max);
  const auto before = static_cast<std::uint64_t>(
      choose3<U128>(job.s) - choose3<U128>(job.s - t.x));
  const std::uint32_t m = job.s - 1 - t.x;  // pair domain size
  const std::uint64_t f = t.y - t.x - 1;
  const std::uint64_t pair_index =
      f * m - f * (f + 1) / 2 + (t.z - t.y - 1);
  return before + pair_index;
}

void TestCursor::locate(std::uint64_t flat) {
  // The covering job is the last one with test_offset <= flat: zero-test
  // jobs have empty intervals and never cover anything.
  const auto it = std::upper_bound(
      jobs_.begin(), jobs_.end(), flat,
      [](std::uint64_t f, const AlsJob& j) { return f < j.test_offset; });
  LGG_ASSERT(it != jobs_.begin());
  const AlsJob& j = *(it - 1);
  LGG_ASSERT(flat - j.test_offset < j.tests);
  job_ = static_cast<std::size_t>(it - jobs_.begin()) - 1;
  triple_ = als_decode_test(j, flat - j.test_offset);
  flat_ = flat;
  positioned_ = true;
}

bool TestCursor::next_job() noexcept {
  for (std::size_t k = job_ + 1; k < jobs_.size(); ++k) {
    if (jobs_[k].tests == 0) continue;
    job_ = k;
    triple_ = {0, 1, 2};
    return true;
  }
  return false;
}

}  // namespace lgg::core
