// Observability layer (DESIGN.md §12): tracer timeline semantics, the
// byte-identical-across-ExecPolicies determinism contract, counter
// aggregation against driver reports, and exporter formats.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/bfs_gpu.hpp"
#include "core/triangle_gpu.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "resilience/fault.hpp"
#include "resilience/runner.hpp"

namespace lgg {
namespace {

// ---- tracer timeline --------------------------------------------------

TEST(Tracer, ChildrenTileParentAndPropagateCursor) {
  obs::Tracer t;
  const auto root = t.begin("root", "driver");
  const auto a = t.begin("a", "plan");
  t.charge_s(1.0);
  t.end(a);
  const auto b = t.begin("b", "launch");
  t.charge_s(2.0);
  t.end(b);
  t.end(root);

  const auto& spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].begin_ns, 0u);
  EXPECT_EQ(spans[0].end_ns, 3'000'000'000u);
  // a occupies [0, 1s); b begins where a ended.
  EXPECT_EQ(spans[1].begin_ns, 0u);
  EXPECT_EQ(spans[1].end_ns, 1'000'000'000u);
  EXPECT_EQ(spans[2].begin_ns, 1'000'000'000u);
  EXPECT_EQ(spans[2].end_ns, 3'000'000'000u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(t.open_depth(), 0u);
}

TEST(Tracer, ChargeOutsideAnySpanAdvancesTopCursor) {
  obs::Tracer t;
  t.charge_s(0.5);
  const auto s = t.begin("late", "driver");
  t.end(s);
  EXPECT_EQ(t.spans()[0].begin_ns, 500'000'000u);
}

TEST(Tracer, SpanCapDropsButKeepsTimelineConsistent) {
  obs::Tracer t;
  t.set_span_cap(1);
  const auto kept = t.begin("kept", "driver");
  const auto dropped = t.begin("dropped", "plan");
  EXPECT_EQ(dropped, obs::Tracer::kDropped);
  t.charge_s(1.0);               // charges the dropped frame's cursor...
  t.arg(dropped, "k", "1");      // no-op, must not crash
  t.end(dropped);
  t.end(kept);
  ASSERT_EQ(t.spans().size(), 1u);
  // ...which still propagates into the recorded parent on close.
  EXPECT_EQ(t.spans()[0].duration_ns(), 1'000'000'000u);
  EXPECT_EQ(t.dropped(), 1u);
}

TEST(Scope, NullSessionIsInertAndCloseIsIdempotent) {
  obs::Scope s(nullptr, "x", "driver");
  EXPECT_FALSE(static_cast<bool>(s));
  s.model_s(1.0);
  s.arg("k", std::uint64_t{1});
  s.close();
  s.close();  // destructor will close a third time; all no-ops
}

// ---- determinism: byte-identical exports across ExecPolicies ----------

struct Exports {
  std::string trace, tree, prom;
};

Exports run_triangle(const graph::Graph& g, const gpusim::ExecPolicy& exec) {
  obs::Session session;
  core::GpuTriangleOptions opts;
  opts.exec = exec;
  opts.obs = &session;
  core::count_triangles_gpu(g, opts);
  return {obs::chrome_trace_json(session.tracer),
          obs::span_tree_text(session.tracer),
          session.metrics.prometheus_text()};
}

TEST(ObsDeterminism, TriangleExportsIdenticalAcrossExecPolicies) {
  const graph::Graph g = graph::layered_random(300, 40, 0.15, 0.08, 11);
  const Exports serial = run_triangle(g, gpusim::ExecPolicy::serial());
  for (const auto threads : {1u, 4u}) {
    const Exports par = run_triangle(g, gpusim::ExecPolicy::parallel(threads));
    EXPECT_EQ(serial.trace, par.trace) << "threads=" << threads;
    EXPECT_EQ(serial.tree, par.tree) << "threads=" << threads;
    EXPECT_EQ(serial.prom, par.prom) << "threads=" << threads;
  }
}

Exports run_resilient_faulty(const graph::Graph& g,
                             const gpusim::ExecPolicy& exec) {
  resilience::FaultInjector injector(21,
                                     resilience::FaultRates::uniform(0.15));
  obs::Session session;
  resilience::RunnerOptions opts;
  opts.exec = exec;
  opts.faults = &injector;
  opts.obs = &session;
  resilience::run_resilient(g, opts);
  return {obs::chrome_trace_json(session.tracer),
          obs::span_tree_text(session.tracer),
          session.metrics.prometheus_text()};
}

TEST(ObsDeterminism, ResilientFaultyExportsIdenticalAcrossExecPolicies) {
  const graph::Graph g = graph::layered_random(400, 60, 0.12, 0.06, 5);
  const Exports serial = run_resilient_faulty(g, gpusim::ExecPolicy::serial());
  const Exports par = run_resilient_faulty(g, gpusim::ExecPolicy::parallel(4));
  EXPECT_EQ(serial.trace, par.trace);
  EXPECT_EQ(serial.tree, par.tree);
  EXPECT_EQ(serial.prom, par.prom);
}

TEST(ObsDeterminism, ResilientTraceCarriesAllPipelinePhases) {
  const graph::Graph g = graph::layered_random(400, 60, 0.12, 0.06, 5);
  obs::Session session;
  resilience::RunnerOptions opts;
  opts.obs = &session;  // fault-free: the retry phase must still appear
  resilience::run_resilient(g, opts);
  bool has_plan = false, has_sched = false, has_launch = false,
       has_retry = false;
  for (const auto& s : session.tracer.spans()) {
    if (s.cat == "plan") has_plan = true;
    if (s.cat == "schedule") has_sched = true;
    if (s.cat == "launch") has_launch = true;
    if (s.cat == "retry") has_retry = true;
  }
  EXPECT_TRUE(has_plan);
  EXPECT_TRUE(has_sched);
  EXPECT_TRUE(has_launch);
  EXPECT_TRUE(has_retry);
}

// ---- counter aggregation vs driver reports ----------------------------

TEST(ObsCounters, TriangleCountersMatchKernelReportExactly) {
  const graph::Graph g = graph::layered_random(300, 40, 0.15, 0.08, 11);
  obs::Session session;
  core::GpuTriangleOptions opts;
  opts.obs = &session;
  const auto r = core::count_triangles_gpu(g, opts);
  const auto& m = session.metrics;
  EXPECT_EQ(m.counter_value("lgg_gpusim_launches_total"), 1u);
  EXPECT_EQ(m.counter_value("lgg_gpusim_global_slots_total"),
            r.kernel.global_slots);
  EXPECT_EQ(m.counter_value("lgg_gpusim_transactions_total"),
            r.kernel.transactions);
  EXPECT_EQ(m.counter_value("lgg_gpusim_bytes_total"), r.kernel.bytes);
  EXPECT_EQ(m.counter_value("lgg_gpusim_shared_slots_total"),
            r.kernel.shared_slots);
  EXPECT_EQ(m.counter_value("lgg_gpusim_bank_conflict_steps_total"),
            r.kernel.bank_conflict_steps);
  EXPECT_DOUBLE_EQ(m.counter_f_value("lgg_gpusim_kernel_seconds_total"),
                   r.kernel.kernel_time_s);
  EXPECT_EQ(m.counter_value("lgg_gpusim_transfer_bytes_total"),
            r.transfer.bytes);
}

TEST(ObsCounters, SampledTriangleCountersMatchRescaledReport) {
  // The rescale invariant: counters must reflect the FINAL (post-rescale)
  // KernelReport the caller sees, not the raw sampled simulation.
  const graph::Graph g = graph::layered_random(600, 80, 0.1, 0.05, 3);
  obs::Session session;
  core::GpuTriangleOptions opts;
  opts.max_simulated_tests = 1000;  // forces sampling + rescale
  opts.obs = &session;
  const auto r = core::count_triangles_gpu(g, opts);
  ASSERT_LT(r.kernel.sample_fraction, 1.0);
  EXPECT_EQ(session.metrics.counter_value("lgg_gpusim_transactions_total"),
            r.kernel.transactions);
  EXPECT_EQ(session.metrics.counter_value("lgg_gpusim_global_slots_total"),
            r.kernel.global_slots);
}

TEST(ObsCounters, BfsAggregatesAcrossLevelLaunches) {
  const graph::Graph g = graph::layered_random(500, 50, 0.1, 0.05, 9);
  obs::Session session;
  core::GpuBfsOptions opts;
  opts.obs = &session;
  const auto r = core::bfs_gpu(g, 0, opts);
  EXPECT_EQ(session.metrics.counter_value("lgg_gpusim_launches_total"),
            r.iterations);
  EXPECT_EQ(session.metrics.counter_value("lgg_gpusim_transactions_total"),
            r.transactions);
  EXPECT_EQ(session.metrics.counter_value("lgg_gpusim_bytes_total"), r.bytes);
  // One launch span per level, all on the modelled timeline.
  std::size_t launches = 0;
  for (const auto& s : session.tracer.spans())
    if (s.cat == "launch") ++launches;
  EXPECT_EQ(launches, r.iterations);
}

// ---- exporters --------------------------------------------------------

TEST(ObsHazards, RecordedHazardsEmitSpanEventsAndCounters) {
  // Satellite of the sancheck integration (DESIGN.md §12/§16): every
  // recorded hazard becomes a zero-duration span event under the current
  // frame, carrying the class in the name and the site in the args — and
  // a hazard-free report emits nothing, keeping fault-free traces golden.
  obs::Session sess;
  const auto root = sess.tracer.begin("launch", "launch");

  gpusim::HazardReport clean;
  obs::record_hazards(&sess, clean);

  gpusim::HazardReport report;
  gpusim::Hazard race;
  race.cls = gpusim::HazardClass::kSharedRace;
  race.addr = 128;
  race.bytes = 4;
  race.first_thread = 3;
  race.second_thread = 35;
  race.message = "shared race at bank 0";
  gpusim::Hazard oob;
  oob.cls = gpusim::HazardClass::kOutOfBounds;
  oob.addr = 4096;
  oob.bytes = 8;
  oob.first_thread = 7;
  report.hazards = {race, oob};
  report.total = 2;
  report.by_class[static_cast<std::size_t>(gpusim::HazardClass::kSharedRace)] =
      1;
  report.by_class[static_cast<std::size_t>(
      gpusim::HazardClass::kOutOfBounds)] = 1;
  obs::record_hazards(&sess, report);
  sess.tracer.end(root);

  const std::string spans = obs::span_tree_text(sess.tracer);
  EXPECT_NE(spans.find("hazard/shared-memory-race"), std::string::npos);
  EXPECT_NE(spans.find("hazard/out-of-bounds"), std::string::npos);

  const std::string json = obs::chrome_trace_json(sess.tracer);
  EXPECT_NE(json.find("\"cat\":\"sancheck\""), std::string::npos);
  EXPECT_NE(json.find("\"addr\":128"), std::string::npos);
  EXPECT_NE(json.find("\"second_thread\":35"), std::string::npos);
  EXPECT_NE(json.find("shared race at bank 0"), std::string::npos);

  const std::string prom = sess.metrics.prometheus_text();
  EXPECT_NE(prom.find("lgg_sancheck_hazards_total 2"), std::string::npos);
  EXPECT_NE(prom.find("class=\"shared-memory-race\""), std::string::npos);
}

TEST(Exporters, JsonEscaping) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Exporters, ChromeTraceShapeAndArgs) {
  obs::Tracer t;
  const auto s = t.begin("kernel \"q\"", "launch");
  t.arg(s, "tests", "42");
  t.charge_s(0.001);
  t.end(s);
  const std::string json = obs::chrome_trace_json(t);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel \\\"q\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"launch\""), std::string::npos);
  EXPECT_NE(json.find("\"tests\":42"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);  // µs
}

TEST(Exporters, PrometheusHistogramIsCumulative) {
  obs::Metrics m;
  const std::array<double, 2> bounds = {1.0, 2.0};
  m.observe("lgg_test_hist", 0.5, bounds);
  m.observe("lgg_test_hist", 1.5, bounds);
  m.observe("lgg_test_hist", 99.0, bounds);
  const std::string text = m.prometheus_text();
  EXPECT_NE(text.find("# TYPE lgg_test_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("lgg_test_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lgg_test_hist_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lgg_test_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lgg_test_hist_count 3"), std::string::npos);
}

TEST(Exporters, PrometheusCountersSortedWithLabels) {
  obs::Metrics m;
  m.count("lgg_b_total", 2, "kind=\"y\"");
  m.count("lgg_b_total", 1, "kind=\"x\"");
  m.count("lgg_a_total", 5);
  m.help("lgg_a_total", "a help line");
  const std::string text = m.prometheus_text();
  const auto a = text.find("lgg_a_total 5");
  const auto bx = text.find("lgg_b_total{kind=\"x\"} 1");
  const auto by = text.find("lgg_b_total{kind=\"y\"} 2");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(bx, std::string::npos);
  ASSERT_NE(by, std::string::npos);
  EXPECT_LT(a, bx);
  EXPECT_LT(bx, by);
  EXPECT_NE(text.find("# HELP lgg_a_total a help line"), std::string::npos);
}

}  // namespace
}  // namespace lgg
