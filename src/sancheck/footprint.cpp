#include "sancheck/footprint.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "combi/binomial.hpp"
#include "combi/strategies.hpp"

namespace lgg::sancheck {

using gpusim::Hazard;
using gpusim::HazardClass;

namespace {

void add_finding(FootprintReport& report, HazardClass cls, std::uint64_t addr,
                 const std::string& message) {
  Hazard h;
  h.cls = cls;
  h.addr = addr;
  h.bytes = 4;
  h.message = message;
  report.findings.push_back(std::move(h));
}

void refute_plan(FootprintReport& report, std::uint64_t addr,
                 const std::string& message) {
  report.plan_consistent = false;
  add_finding(report, HazardClass::kFootprintEscape, addr, message);
}

}  // namespace

FootprintReport lint_footprint(const FootprintSpec& spec) {
  FootprintReport report;

  // ---- 1. plan consistency: jobs tile [0, total_tests) in order and each
  // job's test count matches the combinadic formula.  Array-style kernels
  // (no combinadic jobs) skip this section; their plan consistency is the
  // work-division check below plus LinearAccess containment.
  std::uint64_t expected_offset = 0;
  for (std::size_t r = 0; r < spec.jobs.size(); ++r) {
    const FootprintJob& job = spec.jobs[r];
    std::ostringstream os;
    if (job.k < 1) {
      os << "job " << r << ": combination size k = 0";
      refute_plan(report, r, os.str());
      continue;
    }
    if (job.test_offset != expected_offset) {
      os << "job " << r << ": test_offset " << job.test_offset
         << " leaves a gap (expected " << expected_offset << ')';
      refute_plan(report, job.test_offset, os.str());
      expected_offset = job.test_offset;  // resync to localise findings
    }
    // x_max may not exceed s - k + 1 (the first element still needs k - 1
    // ids above it).
    const std::uint32_t x_bound =
        job.s + 1 >= job.k ? job.s - job.k + 1 : 0;
    // C(s,k) - C(s-x_max,k): the hockey-stick count of tests with first
    // element below x_max (als_plan.hpp generalised to k-combinations).
    const std::uint64_t want =
        combi::binomial_difference(job.s, job.x_max, job.k);
    if (job.x_max > x_bound && job.tests != 0) {
      os.str("");
      os << "job " << r << ": x_max " << job.x_max << " exceeds s - k + 1 = "
         << x_bound << " for s = " << job.s << ", k = " << job.k;
      refute_plan(report, r, os.str());
    } else if (want != combi::kBinomialOverflow && job.tests != want) {
      os.str("");
      os << "job " << r << ": " << job.tests
         << " tests but C(s,k) - C(s-x_max,k) = " << want << " for s = "
         << job.s << ", x_max = " << job.x_max << ", k = " << job.k;
      refute_plan(report, r, os.str());
    }
    if (job.tests > 0 && job.index_bound < job.s) {
      os.str("");
      os << "job " << r << ": index_bound " << job.index_bound
         << " cannot cover local ids up to s - 1 = " << job.s - 1;
      refute_plan(report, r, os.str());
    }
    expected_offset += job.tests;
  }
  if (!spec.jobs.empty() && expected_offset != spec.total_tests) {
    std::ostringstream os;
    os << "jobs cover " << expected_offset << " tests but the plan claims "
       << spec.total_tests;
    refute_plan(report, expected_offset, os.str());
  }

  // ---- 2. work division: the worker -> item map must cover [0,
  // total_tests) with no gap or overlap.
  if (spec.total_tests > 0 && spec.workers == 0) {
    refute_plan(report, 0, "plan has tests but zero workers");
  } else if (spec.total_tests > 0) {
    switch (spec.division) {
      case WorkDivision::kDivideWork: {
        // divide_work must tile the space across the workers (each range
        // is then walked either sequentially or lane-interleaved — both
        // stay inside the range).
        const auto ranges = combi::divide_work(
            spec.total_tests, static_cast<std::uint32_t>(spec.workers));
        std::uint64_t cursor = 0;
        bool tiled = ranges.size() == spec.workers;
        for (const combi::WorkRange& range : ranges) {
          tiled = tiled && range.begin == cursor && range.end >= range.begin;
          cursor = range.end;
        }
        tiled = tiled && cursor == spec.total_tests;
        if (!tiled) {
          std::ostringstream os;
          os << "divide_work(" << spec.total_tests << ", " << spec.workers
             << ") does not tile the test space";
          refute_plan(report, 0, os.str());
        }
        break;
      }
      case WorkDivision::kThreadPerItem:
        // Worker i owns item i; full coverage needs a worker per item.
        if (spec.workers < spec.total_tests) {
          std::ostringstream os;
          os << "thread-per-item division has " << spec.workers
             << " workers for " << spec.total_tests << " items";
          refute_plan(report, 0, os.str());
        }
        break;
      case WorkDivision::kCyclic:
        // Worker t takes t, t + workers, ...: covers whenever workers > 0,
        // which the guard above already established.
        break;
    }
  }

  // ---- 3. containment: interval proof per job.  The kernel's addressing
  // word(i, j) = i * stride + (j >> 5) * 4 is monotone in both ids, so the
  // maximal reachable byte is attained at i = j = index_bound - 1; one
  // comparison bounds every access of every schedule.
  for (std::size_t r = 0; r < spec.jobs.size(); ++r) {
    const FootprintJob& job = spec.jobs[r];
    if (job.tests == 0 || job.block == kNoBlock) continue;
    std::ostringstream os;
    if (job.block >= spec.blocks.size()) {
      os << "job " << r << ": block index " << job.block << " out of range";
      report.contained = false;
      add_finding(report, HazardClass::kFootprintEscape, job.block, os.str());
      continue;
    }
    const FootprintBlock& block = spec.blocks[job.block];
    const std::uint64_t top = job.index_bound > 0 ? job.index_bound - 1 : 0;
    const std::uint64_t max_addr =
        top * block.stride + (top >> 5) * 4 + 4;
    if (max_addr > block.bytes) {
      os << "job " << r << ": footprint reaches byte " << max_addr
         << " of a " << block.bytes << "-byte block (stride " << block.stride
         << ", index bound " << job.index_bound << ')';
      report.contained = false;
      add_finding(report, HazardClass::kFootprintEscape,
                  block.base + max_addr - 4, os.str());
    }
  }

  // ---- 3b. containment of the array-style patterns: every access is
  // index * elem_bytes with index < index_bound, monotone in the index, so
  // the last element bounds the pattern.
  for (std::size_t a = 0; a < spec.accesses.size(); ++a) {
    const LinearAccess& acc = spec.accesses[a];
    if (acc.index_bound == 0) continue;
    std::ostringstream os;
    if (acc.block >= spec.blocks.size()) {
      os << "access '" << acc.what << "': block index " << acc.block
         << " out of range";
      report.contained = false;
      add_finding(report, HazardClass::kFootprintEscape, acc.block, os.str());
      continue;
    }
    const FootprintBlock& block = spec.blocks[acc.block];
    const std::uint64_t max_addr =
        (acc.index_bound - 1) * acc.elem_bytes + acc.word_bytes;
    if (max_addr > block.bytes) {
      os << "access '" << acc.what << "': footprint reaches byte " << max_addr
         << " of a " << block.bytes << "-byte block (" << acc.index_bound
         << " elements x " << acc.elem_bytes << " bytes)";
      report.contained = false;
      add_finding(report, HazardClass::kFootprintEscape,
                  block.base + max_addr - (acc.word_bytes ? acc.word_bytes : 1),
                  os.str());
    }
  }

  // ---- 4. output slots: the per-warp result slots must be injective or
  // two warps race on one functional accumulator.
  if (!spec.warp_slot.empty()) {
    std::unordered_map<std::uint64_t, std::uint64_t> first_owner;
    for (std::uint64_t w = 0; w < spec.warp_slot.size(); ++w) {
      const auto [it, inserted] =
          first_owner.try_emplace(spec.warp_slot[w], w);
      if (inserted) continue;
      std::ostringstream os;
      os << "warps " << it->second << " and " << w
         << " both write output slot " << spec.warp_slot[w];
      report.slots_disjoint = false;
      add_finding(report, HazardClass::kSlotOverlap, spec.warp_slot[w],
                  os.str());
    }
  }

  return report;
}

std::ostream& operator<<(std::ostream& os, const FootprintReport& r) {
  if (r.clean())
    return os << "footprint lint: plan consistent, accesses contained, "
                 "slots disjoint";
  os << "footprint lint: " << r.findings.size() << " finding(s)";
  for (const Hazard& h : r.findings) os << "\n  " << h.message;
  return os;
}

}  // namespace lgg::sancheck
