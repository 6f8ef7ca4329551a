// Tests of the benchmark's own arithmetic: percentile and tail choice,
// span self time and attribution, and failure accounting.
//
//   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(const char* name, double start, double end,
                     std::int64_t parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ms = start;
  s.end_ms = end;
  s.parent = parent;
  return s;
}

void test_percentiles() {
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(near(percentile(v, 99.0), 990.0), "p99 of 1..1000 is 990");
  expect(near(median(v), 500.0), "median of 1..1000 is 500");
  expect(near(percentile({3.0, 1.0, 2.0}, 50.0), 2.0), "median sorts");
  expect(near(percentile({5.0}, 99.0), 5.0), "one sample");
  expect(near(percentile({}, 50.0), 0.0), "no samples");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0), "p100 is max");
  expect(samples_beyond(1000, 99.0) == 10, "10 samples beyond p99 of 1000");
  expect(samples_beyond(999, 99.0) == 9, "9 samples beyond p99 of 999");
}

void test_tail_choice() {
  using namespace perfbench;
  const TailChoice t1000 = choose_tail(1000);
  expect(t1000.found && near(t1000.pct, 99.0) && t1000.beyond == 10,
         "1000 samples: p99 with 10 beyond");
  const TailChoice t10000 = choose_tail(10000);
  expect(t10000.found && near(t10000.pct, 99.9), "10000 samples: p99.9");
  const TailChoice t999 = choose_tail(999);
  expect(t999.found && near(t999.pct, 95.0), "999 samples: falls to p95");
  const TailChoice t100 = choose_tail(100);
  expect(t100.found && near(t100.pct, 90.0) && t100.beyond == 10,
         "100 samples: p90");
  const TailChoice t19 = choose_tail(19);
  expect(!t19.found && t19.beyond == 9,
         "19 samples: no percentile has 10 beyond");
  const TailChoice t20 = choose_tail(20);
  expect(t20.found && near(t20.pct, 50.0) && t20.beyond == 10,
         "20 samples: the median (rank 10) has 10 beyond");
}

void test_self_time_and_attribution() {
  using namespace perfbench;
  // op [0,100] with children [10,40] and [30,60] (overlapping) and a
  // grandchild [15,20] inside the first child.
  std::vector<Span> spans = {
      span("bench.op", 0, 100, -1), span("a", 10, 40, 0),
      span("b", 30, 60, 0), span("a.child", 15, 20, 1),
      span("bench.op", 200, 250, -1), span("c", 190, 260, 4)};
  const std::vector<double> self = self_times_ms(spans);
  expect(near(self[0], 50.0), "op self time: 100 - union(10..60)");
  expect(near(self[1], 25.0), "child self time: 30 - 5");
  expect(near(self[3], 5.0), "leaf self time is its duration");
  expect(near(self[4], 0.0), "child clipped to its parent covers it");
  // Uncovered: 50 of 100 in the first op, 0 of 50 in the second.
  expect(near(unattributed_frac(spans, "bench.op"), 50.0 / 150.0),
         "unattributed share over all ops");
  expect(near(unattributed_frac(spans, "missing"), 0.0), "no ops: 0");
  expect(near(covered_ms({0, 10}, {}), 0.0), "nothing covered");
  expect(near(covered_ms({0, 10}, {{2, 4}, {3, 5}, {8, 20}}), 5.0),
         "union of overlapping and clipped parts");

  Tracer tracer(true);
  {
    SpanScope op(tracer, "bench.op", 1);
    SpanScope inner(tracer, "x", 1);
    inner.close();
    inner.rename("y");
    SpanScope sibling(tracer, "z", 1);
  }
  expect(tracer.spans().size() == 3 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[1].name == "y" && tracer.spans()[2].parent == 0,
         "tracer nests, closes and renames spans");
  Tracer off(false);
  { SpanScope op(off, "bench.op", 1); }
  expect(off.spans().empty(), "disabled tracer records nothing");
}

void test_failed_frac() {
  using namespace perfbench;
  expect(near(failed_frac(0, 0), 0.0), "nothing attempted");
  expect(near(failed_frac(8, 2), 0.25), "2 of 8 failed");
  expect(near(failed_frac(1000, 0), 0.0), "none failed");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_choice();
  test_self_time_and_attribution();
  test_failed_frac();
  if (failures == 0) std::cout << "perfbench_test: all passed\n";
  return failures == 0 ? 0 : 1;
}
