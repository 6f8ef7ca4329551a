// The adjacent-level-set (ALS) work plan shared by the CPU and GPU
// triangle counters (paper Algorithm 2 + Section VIII).
//
// Test-space construction.  For one ALS with first level A (|A| = a) and
// second level B (|B| = b), put the vertices in local order A then B,
// s = a + b.  A combination {x < y < z} of local ids contains >= 1 vertex
// of A exactly when x < a, so Algorithm 2's three GenNxtComb families
// (firstLvl / bothLvls / secondLvl-on-last) collapse into one clean space:
//
//     tests = { (x, y, z) : 0 <= x < x_max, x < y < z < s }
//     x_max = s - 2              for the component's last ALS
//           = min(a, s - 2)      otherwise
//
// Every triangle of G is counted exactly once: a triangle's lowest BFS
// level i puts it in ALS_i with its minimum local id inside A, except
// triangles entirely inside the last level, which the widened x_max of the
// final ALS picks up.  Index <-> (x, y, z) conversion is closed-form
// (hockey-stick identity), which is what lets simulated GPU threads jump
// straight to their work range — the Section VIII-D strategy.
//
// This file owns the test space: append_als_jobs is the one builder of
// AlsJobs (whole-graph plans and per-chunk work alike) and TestCursor the
// one walker over their flat test indices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"

namespace lgg::core {

/// One ALS turned into a flat triangle-test space.
struct AlsJob {
  std::uint32_t component = 0;
  std::uint32_t first_level = 0;
  std::vector<graph::Vertex> local_to_global;  // A's vertices, then B's
  std::uint32_t a = 0;      // |A|
  std::uint32_t s = 0;      // |A| + |B|
  std::uint32_t x_max = 0;  // first-element bound (see header comment)
  std::uint64_t tests = 0;  // total tests in this job
  std::uint64_t test_offset = 0;  // prefix sum over the whole plan
};

/// The full plan: every ALS of every connected component.
struct AlsPlan {
  std::vector<AlsJob> jobs;
  std::uint64_t total_tests = 0;
  std::size_t num_components = 0;
  std::uint64_t bfs_edges_visited = 0;  // preprocessing cost (Algorithm 1)
};

/// Append the ALS jobs of levels [first, last] of one component's level
/// decomposition to `jobs`, their test offsets continuing from `offset`;
/// returns the offset past the last appended job.  ALS l holds level l
/// then level l + 1 (when there is one).  first < last appends ALS first
/// .. last - 1; first == last appends the one ALS of a single-level
/// component.  The component's last ALS (l + 2 == num_levels, or the
/// single-level one) takes x_max = s - 2.  Jobs with fewer than three
/// vertices are kept (tests == 0) so job indices match ALS indices.
/// Throws lgg::Error when a job's or the running test count overflows 64
/// bits.
std::uint64_t append_als_jobs(const graph::LevelDecomposition& levels,
                              std::uint32_t component, std::uint32_t first,
                              std::uint32_t last, std::uint64_t offset,
                              std::vector<AlsJob>& jobs);

/// Build the plan: BFS each component from its smallest vertex and append
/// its ALS sequence (append_als_jobs over levels [0, num_levels - 1]).
AlsPlan build_als_plan(const graph::Graph& g);

/// Total tests for bounds (s, x_max): C(s,3) - C(s-x_max,3), taken in
/// 128-bit arithmetic; kBinomialOverflow only when the count itself does
/// not fit in 64 bits.
std::uint64_t als_total_tests(std::uint32_t s, std::uint32_t x_max) noexcept;

/// Decode a flat local test index into (x, y, z), 0-based local ids,
/// x < y < z < s, using binary search on x plus a closed-form pair unrank.
/// O(log s).  Inverse of als_test_index.
struct TestTriple {
  std::uint32_t x = 0, y = 0, z = 0;
};
TestTriple als_decode_test(const AlsJob& job, std::uint64_t local_index);

/// Encode (x, y, z) back to the flat local index (property-test inverse).
std::uint64_t als_test_index(const AlsJob& job, const TestTriple& t);

/// Advance a decoded triple to the next test in index order without a full
/// decode (z, then y, then x).  Returns false past the last test.
inline bool als_advance_test(const AlsJob& job, TestTriple& t) noexcept {
  if (t.z + 1 < job.s) {
    ++t.z;
    return true;
  }
  if (t.y + 2 < job.s) {
    ++t.y;
    t.z = t.y + 1;
    return true;
  }
  if (t.x + 1 < job.x_max && t.x + 3 < job.s) {
    ++t.x;
    t.y = t.x + 1;
    t.z = t.x + 2;
    return true;
  }
  return false;
}

/// The one walker over a flat ALS test space: `jobs` in plan order with
/// `test_offset` their prefix sum (an AlsPlan's jobs, or a ChunkWork's
/// with chunk-relative offsets).  seek(flat) resolves a flat index to
/// (job, x, y, z): a forward seek that stays inside the current job and
/// its (x, y) row only moves z, anything else decodes in closed form.
/// next() steps to the following test in index order, skipping zero-test
/// jobs.  Seek before the first next(), job() or triple().
class TestCursor {
 public:
  explicit TestCursor(std::span<const AlsJob> jobs) noexcept : jobs_(jobs) {}

  void seek(std::uint64_t flat) {
    if (positioned_ && flat >= flat_) {
      const AlsJob& j = jobs_[job_];
      if (flat - j.test_offset < j.tests) {
        const std::uint64_t delta = flat - flat_;
        if (delta > 0 && triple_.z + delta < j.s) {
          triple_.z += static_cast<std::uint32_t>(delta);
        } else if (delta > 0) {
          triple_ = als_decode_test(j, flat - j.test_offset);
        }
        flat_ = flat;
        return;
      }
    }
    locate(flat);
  }

  /// Step to the next test; false past the last test of the space.
  bool next() {
    LGG_ASSERT(positioned_);
    ++flat_;
    return als_advance_test(jobs_[job_], triple_) || next_job();
  }

  [[nodiscard]] std::size_t job_index() const noexcept { return job_; }
  [[nodiscard]] const AlsJob& job() const noexcept { return jobs_[job_]; }
  [[nodiscard]] const TestTriple& triple() const noexcept { return triple_; }

 private:
  void locate(std::uint64_t flat);  // covering job by binary search
  bool next_job() noexcept;         // first test of the next non-empty job

  std::span<const AlsJob> jobs_;
  std::size_t job_ = 0;
  TestTriple triple_{};
  std::uint64_t flat_ = 0;
  bool positioned_ = false;
};

}  // namespace lgg::core
