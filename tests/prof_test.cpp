// lgg_prof tests (DESIGN.md §17): profile counters must equal the
// KernelReport the caller sees, obey the documented invariants
// (coalesced + uncoalesced == transactions, ideal + replays ==
// transactions, camping conflicts match the partition model), survive
// the drivers' sampled-rescale transformation, and every export must be
// byte-identical across host execution policies.  The diff engine is
// the CI gate: exact equality passes, tampering fails, tolerances and
// ignore patterns behave per the prom_diff contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lgg.hpp"

namespace lgg {
namespace {

graph::Graph test_graph() {
  return graph::layered_random(300, 40, 0.15, 0.08, 11);
}

/// Everything the profiler can export, captured from one traced run.
struct ProfRun {
  core::GpuTriangleResult result;
  std::vector<prof::KernelProfile> profiles;
  std::string profile;
  std::string tree;
  std::string flame;
  std::string trace;
  std::vector<std::string> tracks;
};

ProfRun run_gpu(const graph::Graph& g, gpusim::ExecPolicy exec,
                core::GpuLayout layout = core::GpuLayout::kCoalescedAntiCamping,
                std::uint64_t max_tests = 0) {
  obs::Session sess;
  prof::Profiler profiler(&sess);
  core::GpuTriangleOptions opts;
  opts.layout = layout;
  opts.exec = exec;
  opts.obs = &sess;
  opts.prof = &profiler;
  opts.max_simulated_tests = max_tests;
  ProfRun r;
  r.result = core::count_triangles_gpu(g, opts);
  r.profiles = profiler.profiles();
  r.profile = profiler.profile_text();
  r.tree = profiler.profile_tree_text();
  r.flame = prof::flamegraph_text(sess.tracer);
  r.tracks = profiler.counter_track_events();
  r.trace = obs::chrome_trace_json(sess.tracer, r.tracks);
  return r;
}

TEST(ProfCounters, MatchKernelReportAndInvariants) {
  const graph::Graph g = test_graph();
  const ProfRun r = run_gpu(g, gpusim::ExecPolicy::serial());
  ASSERT_EQ(r.profiles.size(), 1u);
  const prof::KernelProfile& p = r.profiles.front();
  const gpusim::KernelReport& k = r.result.kernel;

  // The profile IS the caller-visible report, field for field.
  EXPECT_EQ(p.global_slots, k.global_slots);
  EXPECT_EQ(p.transactions, k.transactions);
  EXPECT_EQ(p.bytes, k.bytes);
  EXPECT_EQ(p.shared_slots, k.shared_slots);
  EXPECT_EQ(p.bank_conflict_steps, k.bank_conflict_steps);
  EXPECT_DOUBLE_EQ(p.warp_instructions, k.warp_instructions);
  EXPECT_DOUBLE_EQ(p.camping_factor, k.camping_factor);
  EXPECT_DOUBLE_EQ(p.kernel_time_s, k.kernel_time_s);

  // Documented LaunchCounters invariants.
  EXPECT_EQ(p.coalesced_slots + p.uncoalesced_slots, p.global_slots);
  EXPECT_EQ(p.coalesced_transactions + p.uncoalesced_transactions,
            p.transactions);
  EXPECT_EQ(p.ideal_transactions + p.memory_replays, p.transactions);
  EXPECT_LE(p.ideal_transactions, p.transactions);
  EXPECT_EQ(p.shared_accesses + p.shared_replays, p.bank_conflict_steps);

  // Per-SM rows re-sum to the launch totals.
  std::uint64_t slots = 0, txns = 0, warps = 0;
  for (const gpusim::SmCounters& c : p.sms) {
    slots += c.global_slots;
    txns += c.transactions;
    warps += c.warps;
  }
  EXPECT_EQ(slots, p.global_slots);
  EXPECT_EQ(txns, p.transactions);
  EXPECT_EQ(warps, p.warps);
}

TEST(ProfCounters, CampingMatchesPartitionModel) {
  // The naive layout is the Figs. 6/7 camping workload: the profile's
  // conflict accounting must re-derive from the report's histogram.
  const graph::Graph g = test_graph();
  const ProfRun r = run_gpu(g, gpusim::ExecPolicy::serial(),
                            core::GpuLayout::kNaive);
  const prof::KernelProfile& p = r.profiles.front();
  const gpusim::PartitionHistogram& h = r.result.kernel.partition_histogram;
  EXPECT_EQ(p.partition_pressure, h.count);
  EXPECT_EQ(p.partition_total, h.total);
  EXPECT_EQ(p.partition_serialized_steps, h.serialized_steps());
  EXPECT_EQ(p.partition_ideal_steps, h.ideal_steps());
  EXPECT_DOUBLE_EQ(p.camping_factor, h.camping_factor());
  EXPECT_EQ(p.camping_conflict_steps(),
            h.serialized_steps() -
                std::min(h.ideal_steps(), h.serialized_steps()));
  EXPECT_GT(p.transactions, 0u);
}

TEST(ProfCounters, RescaledProfileTracksSampledReport) {
  // A truncating test budget rescales the KernelReport; the profile is
  // recorded from the rescaled launch, so it matches the final report.
  const graph::Graph g = test_graph();
  const ProfRun r =
      run_gpu(g, gpusim::ExecPolicy::serial(),
              core::GpuLayout::kCoalescedAntiCamping, 1000);
  ASSERT_FALSE(r.result.exact);
  const prof::KernelProfile& p = r.profiles.front();
  const gpusim::KernelReport& k = r.result.kernel;
  EXPECT_EQ(p.transactions, k.transactions);
  EXPECT_EQ(p.bytes, k.bytes);
  EXPECT_EQ(p.bank_conflict_steps, k.bank_conflict_steps);
  EXPECT_DOUBLE_EQ(p.camping_factor, k.camping_factor);
  EXPECT_DOUBLE_EQ(p.kernel_time_s, k.kernel_time_s);
  EXPECT_DOUBLE_EQ(p.sample_fraction, k.sample_fraction);
  EXPECT_LT(p.sample_fraction, 1.0);
  // Invariants survive the rescale.
  EXPECT_EQ(p.coalesced_transactions + p.uncoalesced_transactions,
            p.transactions);
  EXPECT_EQ(p.ideal_transactions + p.memory_replays, p.transactions);
  EXPECT_EQ(p.shared_accesses + p.shared_replays, p.bank_conflict_steps);
}

TEST(ProfDeterminism, ExportsByteIdenticalAcrossPolicies) {
  const graph::Graph g = test_graph();
  const auto layout = core::GpuLayout::kCoalescedAntiCamping;
  // Exact and sampled (rescaled) launches.
  for (const std::uint64_t max_tests : {0u, 1000u}) {
    const ProfRun serial =
        run_gpu(g, gpusim::ExecPolicy::serial(), layout, max_tests);
    EXPECT_EQ(serial.result.exact, max_tests == 0);
    for (const std::size_t threads : {1u, 8u}) {
      SCOPED_TRACE("max_tests=" + std::to_string(max_tests) +
                   " threads=" + std::to_string(threads));
      const ProfRun par = run_gpu(g, gpusim::ExecPolicy::parallel(threads),
                                  layout, max_tests);
      EXPECT_EQ(serial.profile, par.profile);
      EXPECT_EQ(serial.tree, par.tree);
      EXPECT_EQ(serial.flame, par.flame);
      EXPECT_EQ(serial.tracks, par.tracks);
      EXPECT_EQ(serial.trace, par.trace);
    }
  }
}

TEST(ProfDeterminism, ResilientRunAttributesChunks) {
  // Multi-chunk pipeline: one profile per chunk launch, each attributed
  // to its chunk's span path, byte-identical across policies.
  const graph::Graph g = test_graph();
  const auto run = [&](gpusim::ExecPolicy exec) {
    obs::Session sess;
    prof::Profiler profiler(&sess);
    resilience::RunnerOptions opts;
    opts.exec = exec;
    opts.obs = &sess;
    opts.prof = &profiler;
    const resilience::RunnerReport rep = resilience::run_resilient(g, opts);
    EXPECT_TRUE(rep.exact);
    return std::pair<std::string, std::size_t>(profiler.profile_text(),
                                               profiler.profiles().size());
  };
  const auto serial = run(gpusim::ExecPolicy::serial());
  const auto par = run(gpusim::ExecPolicy::parallel(8));
  EXPECT_GT(serial.second, 0u);
  EXPECT_EQ(serial.first, par.first);
  EXPECT_NE(serial.first.find("stack="), std::string::npos);
  EXPECT_NE(serial.first.find("chunk["), std::string::npos);
}

TEST(ProfDrivers, EveryDriverLaunchIsProfiled) {
  // RunContext::prof reaches core::launch, so each of the five drivers
  // hands its launches to the profiler with no driver-side wiring.
  const graph::Graph g = graph::gnm(40, 120, 7);
  prof::Profiler profiler;
  const auto harvest = [&](const std::string& kernel) {
    std::vector<prof::KernelProfile> got = profiler.profiles();
    profiler = prof::Profiler();
    EXPECT_FALSE(got.empty()) << kernel;
    std::uint64_t transactions = 0;
    for (const prof::KernelProfile& p : got) {
      EXPECT_EQ(p.name.rfind(kernel, 0), 0u) << p.name;
      transactions += p.transactions;
    }
    return std::pair(got.size(), transactions);
  };

  core::GpuTriangleOptions tri;
  tri.prof = &profiler;
  const auto tri_r = core::count_triangles_gpu(g, tri);
  EXPECT_EQ(harvest("triangles/coalesced+anti-camping"),
            std::pair(std::size_t{1}, tri_r.kernel.transactions));

  core::GpuIntersectOptions isect;
  isect.prof = &profiler;
  const auto isect_r = core::count_triangles_gpu_intersect(g, isect);
  EXPECT_EQ(harvest("triangles/intersect"),
            std::pair(std::size_t{1}, isect_r.kernel.transactions));

  core::GpuKCountOptions kc;
  kc.prof = &profiler;
  const auto kc_r = core::count_kcliques_gpu(g, 4, kc);
  EXPECT_EQ(harvest("kcount"),
            std::pair(std::size_t{1}, kc_r.kernel.transactions));

  core::GpuBfsOptions bfs;
  bfs.prof = &profiler;
  const auto bfs_r = core::bfs_gpu(g, 0, bfs);
  EXPECT_EQ(harvest("bfs/level").second, bfs_r.transactions);

  core::HybridOptions hyb;
  hyb.prof = &profiler;
  const auto hyb_r = core::count_triangles_hybrid(g, hyb);
  EXPECT_EQ(harvest("chunk/").first, hyb_r.chunks.size());
}

TEST(ProfExports, MetricsAggregateAndTracksRender) {
  const graph::Graph g = test_graph();
  obs::Session sess;
  prof::Profiler profiler(&sess);
  core::GpuTriangleOptions opts;
  opts.layout = core::GpuLayout::kNaive;
  opts.obs = &sess;
  opts.prof = &profiler;
  const auto result = core::count_triangles_gpu(g, opts);
  profiler.export_metrics(sess.metrics);
  EXPECT_EQ(sess.metrics.counter_value("lgg_prof_launches_total"), 1u);
  EXPECT_EQ(sess.metrics.counter_value("lgg_prof_coalesced_transactions_total") +
                sess.metrics.counter_value(
                    "lgg_prof_uncoalesced_transactions_total"),
            result.kernel.transactions);
  // Counter-track events are valid one-line JSON objects on the modelled
  // timeline and splice into a loadable Chrome trace.
  const std::vector<std::string> tracks = profiler.counter_track_events();
  ASSERT_FALSE(tracks.empty());
  for (const std::string& ev : tracks) {
    EXPECT_EQ(ev.front(), '{');
    EXPECT_EQ(ev.back(), '}');
    EXPECT_NE(ev.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(ev.find("lgg_prof/"), std::string::npos);
  }
  const std::string trace = obs::chrome_trace_json(sess.tracer, tracks);
  EXPECT_NE(trace.find("lgg_prof/transactions"), std::string::npos);
  EXPECT_NE(trace.find("\"camping_factor\""), std::string::npos);
}

TEST(ProfFlamegraph, SelfTimeExcludesChildren) {
  obs::Tracer t;
  const std::size_t root = t.begin("root", "test");
  t.charge_ns(100);
  const std::size_t c1 = t.begin("child", "test");
  t.charge_ns(40);
  t.end(c1);
  const std::size_t c2 = t.begin("child", "test");  // same stack: aggregates
  t.charge_ns(10);
  t.end(c2);
  t.charge_ns(50);
  t.end(root);
  const std::string flame = prof::flamegraph_text(t);
  EXPECT_EQ(flame, "root 150\nroot;child 50\n");
}

TEST(ProfDiff, ExactAndToleranced) {
  const std::string a =
      "# comment\n"
      "lgg_prof_launches 2\n"
      "lgg_prof_transactions{kernel=\"k\",launch=\"0\"} 1000\n"
      "lgg_prof_kernel_time_s{kernel=\"k\",launch=\"0\"} 0.5\n";
  // Identical text: clean diff.
  EXPECT_TRUE(prof::diff_profile_text(a, a).equal);

  // A 0.5% drift fails exact comparison but passes rtol 1%.
  std::string b = a;
  b.replace(b.find("1000"), 4, "1005");
  EXPECT_FALSE(prof::diff_profile_text(a, b).equal);
  prof::DiffOptions tol;
  tol.rtol = 0.01;
  EXPECT_TRUE(prof::diff_profile_text(a, b, tol).equal);

  // Ignore patterns drop series wholesale.
  prof::DiffOptions ign;
  ign.ignore = {"transactions"};
  EXPECT_TRUE(prof::diff_profile_text(a, b, ign).equal);

  // A key present on only one side always differs, whatever the rtol.
  const std::string c = a + "lgg_prof_extra 1\n";
  prof::DiffOptions loose;
  loose.rtol = 100.0;
  const prof::DiffResult r = prof::diff_profile_text(a, c, loose);
  EXPECT_FALSE(r.equal);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_NE(r.diffs[0].find("only in B"), std::string::npos);
}

TEST(ProfDiff, ReportsValueMismatchDeterministically) {
  const std::string a = "x 1\ny 2\nz 3\n";
  const std::string b = "x 1\ny 5\nz 9\n";
  const prof::DiffResult r = prof::diff_profile_text(a, b);
  ASSERT_EQ(r.diffs.size(), 2u);
  EXPECT_NE(r.diffs[0].find("y"), std::string::npos);
  EXPECT_NE(r.diffs[1].find("z"), std::string::npos);
}

TEST(ProfDiff, IgnoreAlternationSkipsEitherBranch) {
  const std::string a = "a_total 1\nb_total 2\nc_total 3\n";
  const std::string b = "a_total 7\nb_total 8\nc_total 3\n";
  prof::DiffOptions ign;
  ign.ignore = {"a|b"};
  EXPECT_TRUE(prof::diff_profile_text(a, b, ign).equal);
  ign.ignore = {"^(a|c)_"};
  const prof::DiffResult r = prof::diff_profile_text(a, b, ign);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_NE(r.diffs[0].find("b_total"), std::string::npos);
}

TEST(ProfDiff, InvalidIgnorePatternThrows) {
  prof::DiffOptions bad;
  bad.ignore = {"("};
  EXPECT_THROW((void)prof::diff_profile_text("x 1\n", "x 1\n", bad),
               lgg::Error);
}

TEST(ProfObs, SpanCapDropsAreObservable) {
  obs::Tracer t;
  t.set_span_cap(1);
  const std::size_t kept = t.begin("kept", "test");
  t.charge_ns(10);
  const std::size_t lost = t.begin("dropped", "test");
  t.end(lost);
  t.end(kept);
  EXPECT_EQ(t.dropped(), 1u);
  // The flamegraph still renders from what was recorded.
  EXPECT_NE(prof::flamegraph_text(t).find("kept"), std::string::npos);
}

}  // namespace
}  // namespace lgg
