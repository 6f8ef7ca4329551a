// Tests for the fault-injection framework and the resilient chunked
// runner (DESIGN.md §11): injector determinism and replay, DeviceFault
// surfacing through every GPU driver, exact recovery under sustained
// fault rates, FaultPlan/RecoveryStats accounting, log byte-identity
// across host thread counts, and the three failover policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint_craft.hpp"
#include "lgg.hpp"

namespace {

using namespace lgg;
using gpusim::DeviceFault;
using gpusim::FaultSite;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::FaultRates;
using resilience::Failover;

graph::Graph test_graph() {
  // Dense enough for a six-digit test count, small enough that CPU
  // recounts stay fast.
  return graph::erdos_renyi(120, 0.15, 42);
}

graph::Graph chunked_graph() {
  // Many BFS levels (chunk boundaries follow the level decomposition):
  // with the tiny-shared device below this splits into ~9 chunks, giving
  // every fault site plenty of draws while staying fast.
  return graph::layered_random(240, 12, 0.5, 0.2, 7);
}

// A C1060 with tiny shared memory: chunk capacity derives from shared
// bits, so chunked_graph() splits into many small chunks — lots of
// fault-site draws per run without a large (slow) graph.
const gpusim::DeviceSpec& tiny_shared_device() {
  static const gpusim::DeviceSpec dev = [] {
    gpusim::DeviceSpec d = gpusim::tesla_c1060();
    d.name = "C1060-tiny-shared";
    d.shared_mem_bytes = 128;  // 1024 bits -> chunks of <= ~45 vertices
    return d;
  }();
  return dev;
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, RateZeroNeverFires) {
  FaultInjector inj(123, FaultRates{});
  const gpusim::KernelConfig config{};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.on_alloc(64));
    EXPECT_FALSE(inj.on_launch(config));
    EXPECT_FALSE(inj.on_sm_abort(config, 3));
    EXPECT_FALSE(inj.on_transfer(4096));
  }
  EXPECT_EQ(inj.total_faults(), 0u);
  EXPECT_EQ(inj.draws(FaultSite::kAlloc), 1000u);
}

TEST(FaultInjector, RateOneAlwaysFires) {
  FaultInjector inj(123, FaultRates::uniform(1.0));
  const gpusim::KernelConfig config{};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(inj.on_alloc(64));
    EXPECT_TRUE(inj.on_transfer(4096));
  }
  EXPECT_EQ(inj.total_faults(), 200u);
  EXPECT_EQ(inj.count(FaultSite::kAlloc), 100u);
  EXPECT_EQ(inj.count(FaultSite::kTransfer), 100u);
}

TEST(FaultInjector, DecisionsAreDeterministicInSeed) {
  const gpusim::KernelConfig config{};
  std::vector<bool> first;
  for (int run = 0; run < 2; ++run) {
    FaultInjector inj(99, FaultRates::uniform(0.3));
    std::vector<bool> fired;
    for (int i = 0; i < 500; ++i) {
      fired.push_back(inj.on_alloc(8));
      fired.push_back(inj.on_transfer(128));
      fired.push_back(inj.on_sm_abort(config, static_cast<unsigned>(i % 30)));
    }
    if (run == 0)
      first = fired;
    else
      EXPECT_EQ(first, fired);
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  auto pattern = [](std::uint64_t seed) {
    FaultInjector inj(seed, FaultRates::uniform(0.5));
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(inj.on_alloc(8));
    return fired;
  };
  EXPECT_NE(pattern(1), pattern(2));
}

TEST(FaultInjector, RateIsApproximatelyHonoured) {
  FaultInjector inj(7, FaultRates::uniform(0.1));
  for (int i = 0; i < 10000; ++i) inj.on_transfer(64);
  const auto fired = inj.count(FaultSite::kTransfer);
  EXPECT_GT(fired, 700u);  // ~1000 expected; wide deterministic bounds
  EXPECT_LT(fired, 1300u);
}

TEST(FaultInjector, ReplayReproducesRandomRun) {
  const gpusim::KernelConfig config{};
  FaultInjector random(31337, FaultRates::uniform(0.25));
  for (int i = 0; i < 300; ++i) {
    random.on_alloc(static_cast<std::uint64_t>(i));
    random.on_launch(config);
    random.on_transfer(static_cast<std::uint64_t>(2 * i));
  }
  const FaultPlan plan = random.plan();
  ASSERT_GT(plan.events.size(), 0u);

  FaultInjector replay(plan);
  for (int i = 0; i < 300; ++i) {
    replay.on_alloc(static_cast<std::uint64_t>(i));
    replay.on_launch(config);
    replay.on_transfer(static_cast<std::uint64_t>(2 * i));
  }
  EXPECT_EQ(replay.events(), plan.events);
  // And a fresh random injector from the same (seed, rates) regenerates
  // the identical plan.
  FaultInjector again(plan.seed, plan.rates);
  for (int i = 0; i < 300; ++i) {
    again.on_alloc(static_cast<std::uint64_t>(i));
    again.on_launch(config);
    again.on_transfer(static_cast<std::uint64_t>(2 * i));
  }
  EXPECT_EQ(again.events(), plan.events);
}

// -------------------------------------------------- faults reach all drivers

TEST(FaultDrivers, LaunchFaultSurfacesInEveryGpuDriver) {
  const graph::Graph g = graph::complete(12);
  const FaultRates launch_only{0.0, 1.0, 0.0, 0.0};

  {
    FaultInjector inj(1, launch_only);
    core::GpuTriangleOptions opts;
    opts.faults = &inj;
    EXPECT_THROW(core::count_triangles_gpu(g, opts), DeviceFault);
  }
  {
    FaultInjector inj(1, launch_only);
    core::GpuIntersectOptions opts;
    opts.faults = &inj;
    EXPECT_THROW(core::count_triangles_gpu_intersect(g, opts), DeviceFault);
  }
  {
    FaultInjector inj(1, launch_only);
    core::GpuKCountOptions opts;
    opts.faults = &inj;
    EXPECT_THROW(core::count_kcliques_gpu(g, 3, opts), DeviceFault);
  }
  {
    FaultInjector inj(1, launch_only);
    core::GpuBfsOptions opts;
    opts.faults = &inj;
    EXPECT_THROW(core::bfs_gpu(g, 0, opts), DeviceFault);
  }
  {
    FaultInjector inj(1, launch_only);
    core::HybridOptions opts;
    opts.faults = &inj;
    EXPECT_THROW(core::count_triangles_hybrid(g, opts), DeviceFault);
  }
}

TEST(FaultDrivers, AllocFaultSurfacesAsDeviceFault) {
  const graph::Graph g = graph::complete(12);
  FaultInjector inj(1, FaultRates{1.0, 0.0, 0.0, 0.0});
  core::GpuTriangleOptions opts;
  opts.faults = &inj;
  try {
    core::count_triangles_gpu(g, opts);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    EXPECT_EQ(e.site(), FaultSite::kAlloc);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
}

TEST(FaultDrivers, NullHookIsFaultFree) {
  const graph::Graph g = graph::complete(10);
  core::GpuTriangleOptions opts;
  const auto r = core::count_triangles_gpu(g, opts);
  EXPECT_EQ(r.triangles, core::count_triangles_forward(g));
}

// ------------------------------------------------------------------ runner

TEST(ResilientRunner, FaultFreeMatchesOracle) {
  const graph::Graph g = test_graph();
  const auto report = resilience::run_resilient(g);
  EXPECT_EQ(report.triangles, core::count_triangles_forward(g));
  EXPECT_TRUE(report.exact);
  EXPECT_TRUE(report.certified);
  EXPECT_EQ(report.recovery.faults, 0u);
  EXPECT_EQ(report.recovery.retries, 0u);
  EXPECT_TRUE(report.lost_sms.empty());
}

TEST(ResilientRunner, ExactUnderTenPercentFaults) {
  const graph::Graph g = test_graph();
  const std::uint64_t oracle = core::count_triangles_forward(g);
  for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
    FaultInjector inj(seed, FaultRates::uniform(0.1));
    resilience::RunnerOptions opts;
    opts.faults = &inj;
    const auto report = resilience::run_resilient(g, opts);
    EXPECT_EQ(report.triangles, oracle) << "seed " << seed;
    EXPECT_TRUE(report.exact) << "seed " << seed;
    EXPECT_TRUE(report.certified) << "seed " << seed;
  }
}

TEST(ResilientRunner, AccountingMatchesInjectorPlan) {
  const graph::Graph g = chunked_graph();
  FaultInjector inj(2024, FaultRates::uniform(0.1));
  resilience::RunnerOptions opts;
  opts.device = &tiny_shared_device();  // many chunks -> many draws
  opts.faults = &inj;
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_GT(inj.total_faults(), 0u);

  // Every fault the injector fired must be accounted, by site, in the
  // recovery stats — and nothing else.
  std::array<std::uint64_t, gpusim::kNumFaultSites> plan_by_site{};
  for (const auto& e : inj.events())
    ++plan_by_site[static_cast<std::size_t>(e.site)];
  EXPECT_EQ(report.recovery.by_site, plan_by_site);
  EXPECT_EQ(report.recovery.faults, inj.total_faults());
  EXPECT_EQ(report.device.faults_injected, inj.total_faults());

  // Per-chunk fault counts sum to the total.
  std::uint64_t chunk_faults = 0;
  for (const auto& c : report.chunks) chunk_faults += c.faults;
  EXPECT_EQ(chunk_faults, report.recovery.faults);
}

TEST(ResilientRunner, LogIsByteIdenticalAcrossThreadCounts) {
  const graph::Graph g = chunked_graph();
  auto run = [&](std::size_t threads) {
    FaultInjector inj(555, FaultRates::uniform(0.1));
    resilience::RunnerOptions opts;
    opts.device = &tiny_shared_device();
    opts.faults = &inj;
    opts.exec = threads == 1 ? gpusim::ExecPolicy::serial()
                             : gpusim::ExecPolicy::parallel(threads);
    return resilience::run_resilient(g, opts);
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.triangles, b.triangles);
  EXPECT_EQ(a.recovery.by_site, b.recovery.by_site);
  EXPECT_EQ(a.lost_sms, b.lost_sms);
}

TEST(ResilientRunner, CorruptionIsDetectedAndRecovered) {
  const graph::Graph g = test_graph();
  // Every transfer corrupts: each device attempt fails verification, so
  // every non-empty chunk must exhaust retries and fail over to the CPU.
  FaultInjector inj(8, FaultRates{0.0, 0.0, 0.0, 1.0});
  resilience::RunnerOptions opts;
  opts.faults = &inj;
  opts.retry.max_retries = 1;
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_EQ(report.triangles, core::count_triangles_forward(g));
  EXPECT_TRUE(report.certified);
  EXPECT_GT(report.recovery.corruptions_detected, 0u);
  EXPECT_GT(report.recovery.cpu_failovers, 0u);
}

TEST(ResilientRunner, UnverifiedCorruptionGoesUndetected) {
  const graph::Graph g = test_graph();
  FaultInjector inj(8, FaultRates{0.0, 0.0, 0.0, 1.0});
  resilience::RunnerOptions opts;
  opts.faults = &inj;
  opts.verify = false;
  const auto report = resilience::run_resilient(g, opts);
  // verify=false trusts the device: the corrupted counts land in the
  // total (always perturbed upward) and the run is not certified.
  EXPECT_GT(report.triangles, core::count_triangles_forward(g));
  EXPECT_FALSE(report.certified);
  EXPECT_EQ(report.recovery.corruptions_detected, 0u);
}

TEST(ResilientRunner, StreamFailoverIsExact) {
  const graph::Graph g = test_graph();
  FaultInjector inj(3, FaultRates{0.0, 1.0, 0.0, 0.0});
  resilience::RunnerOptions opts;
  opts.faults = &inj;
  opts.retry.max_retries = 0;
  opts.failover = Failover::kStream;
  opts.stream_batch_tests = 64;  // force many batches
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_EQ(report.triangles, core::count_triangles_forward(g));
  EXPECT_TRUE(report.certified);
  EXPECT_GT(report.recovery.stream_failovers, 0u);
  EXPECT_EQ(report.recovery.cpu_failovers, 0u);
}

TEST(ResilientRunner, FailoverOffGivesUp) {
  const graph::Graph g = test_graph();
  FaultInjector inj(3, FaultRates{0.0, 1.0, 0.0, 0.0});
  resilience::RunnerOptions opts;
  opts.faults = &inj;
  opts.retry.max_retries = 0;
  opts.failover = Failover::kOff;
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_FALSE(report.exact);
  EXPECT_FALSE(report.certified);
  EXPECT_GT(report.recovery.failed_chunks, 0u);
  for (const auto& c : report.chunks) {
    if (c.tests > 0) {
      EXPECT_EQ(c.outcome, resilience::ChunkOutcome::kFailed);
    }
  }
}

TEST(ResilientRunner, SmAbortMarksSmLostAndSchedulesAroundIt) {
  const graph::Graph g = chunked_graph();
  // Aggressive SM aborts: some chunks will exhaust retries, fail over,
  // and their planned SMs must be reported lost; the repaired schedule
  // must cover exactly the surviving machines.
  FaultInjector inj(17, FaultRates{0.0, 0.0, 0.5, 0.0});
  resilience::RunnerOptions opts;
  opts.device = &tiny_shared_device();
  opts.faults = &inj;
  opts.retry.max_retries = 1;
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_EQ(report.triangles, core::count_triangles_forward(g));
  EXPECT_TRUE(report.certified);
  EXPECT_GT(report.recovery.by_site[static_cast<std::size_t>(
                FaultSite::kSmAbort)],
            0u);
  ASSERT_FALSE(report.lost_sms.empty());
  for (const auto sm : report.lost_sms) {
    ASSERT_LT(sm, report.schedule.load.size());
    EXPECT_EQ(report.schedule.load[sm], 0u);
  }
}

TEST(ResilientRunner, RetriesRecoverTransientFaults) {
  const graph::Graph g = chunked_graph();
  // Moderate launch faults with generous retries: most chunks should
  // recover on-device rather than failing over.
  FaultInjector inj(12, FaultRates{0.0, 0.2, 0.0, 0.0});
  resilience::RunnerOptions opts;
  opts.device = &tiny_shared_device();
  opts.faults = &inj;
  opts.retry.max_retries = 8;
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_EQ(report.triangles, core::count_triangles_forward(g));
  EXPECT_TRUE(report.certified);
  EXPECT_GT(report.recovery.retries, 0u);
  EXPECT_GT(report.recovery.backoff_s, 0.0);
  const bool any_retried = std::any_of(
      report.chunks.begin(), report.chunks.end(), [](const auto& c) {
        return c.outcome == resilience::ChunkOutcome::kGpuRetried;
      });
  EXPECT_TRUE(any_retried);
}

TEST(ResilientRunner, BackoffIsBoundedAndMonotone) {
  resilience::RetryPolicy policy;
  double prev = 0.0;
  for (std::uint32_t r = 0; r < 32; ++r) {
    const double b = policy.backoff_s(r);
    EXPECT_GE(b, prev);
    EXPECT_LE(b, policy.max_backoff_s);
    prev = b;
  }
  EXPECT_DOUBLE_EQ(policy.backoff_s(0), policy.base_backoff_s);
  EXPECT_DOUBLE_EQ(policy.backoff_s(31), policy.max_backoff_s);
}

TEST(ResilientRunner, CorpusGraphsStayExactUnderFaults) {
  // Every regression graph in tests/corpus must count exactly under a
  // sustained 10% fault rate at every site (the headline acceptance
  // criterion of DESIGN.md §11).
  const auto files = fuzz::list_repro_files(LGG_CORPUS_DIR);
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    const fuzz::Repro repro = fuzz::read_repro_file(path);
    FaultInjector inj(4242, FaultRates::uniform(0.1));
    resilience::RunnerOptions opts;
    opts.faults = &inj;
    const auto report = resilience::run_resilient(repro.graph, opts);
    EXPECT_EQ(report.triangles, repro.oracle) << path;
    EXPECT_TRUE(report.certified) << path;
  }
}

// ----------------------------------------------------------------- salvage

TEST(Salvage, SmAbortKeepsCompletedWarpsAndRecountsRemainder) {
  const graph::Graph g = chunked_graph();
  const std::uint64_t oracle = core::count_triangles_forward(g);
  FaultInjector inj(17, FaultRates{0.0, 0.0, 0.5, 0.0});
  resilience::RunnerOptions opts;
  opts.device = &tiny_shared_device();
  opts.faults = &inj;  // salvage on (the default)
  const auto report = resilience::run_resilient(g, opts);

  // The certified count equals the fault-free count.
  EXPECT_EQ(report.triangles, oracle);
  EXPECT_TRUE(report.certified);

  // Salvage did real work: warps were kept, and the host recount covered
  // ONLY the lost remainder (kept + recounted == the chunk's tests).
  EXPECT_GT(report.recovery.salvaged_warps, 0u);
  EXPECT_GT(report.recovery.salvaged_tests, 0u);
  EXPECT_GT(report.recovery.recounted_tests, 0u);
  bool any_salvaged = false;
  for (const auto& c : report.chunks) {
    if (c.outcome != resilience::ChunkOutcome::kSalvaged) continue;
    any_salvaged = true;
    EXPECT_GT(c.salvaged_warps, 0u);
    EXPECT_GT(c.salvaged_tests, 0u);
    EXPECT_GT(c.recounted_tests, 0u);
    EXPECT_EQ(c.salvaged_tests + c.recounted_tests, c.tests);
    EXPECT_TRUE(c.certified);
    // Salvage accepts the aborted attempt: no device retry happened.
    EXPECT_EQ(c.attempts, 1u);
  }
  EXPECT_TRUE(any_salvaged);
}

TEST(Salvage, DisabledSalvageStillRecoversExactly) {
  const graph::Graph g = chunked_graph();
  FaultInjector inj(17, FaultRates{0.0, 0.0, 0.5, 0.0});
  resilience::RunnerOptions opts;
  opts.device = &tiny_shared_device();
  opts.faults = &inj;
  opts.salvage = false;
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_EQ(report.triangles, core::count_triangles_forward(g));
  EXPECT_TRUE(report.certified);
  EXPECT_EQ(report.recovery.salvaged_warps, 0u);
  for (const auto& c : report.chunks)
    EXPECT_NE(c.outcome, resilience::ChunkOutcome::kSalvaged);
}

TEST(FaultInjector, StateRoundTripContinuesIdentically) {
  const auto drive = [](FaultInjector& inj, int iters) {
    const gpusim::KernelConfig config{};
    for (int i = 0; i < iters; ++i) {
      inj.on_alloc(64);
      inj.on_launch(config);
      inj.on_sm_abort(config, static_cast<std::uint32_t>(i % 4));
      inj.on_transfer(4096);
    }
  };
  FaultInjector full(42, FaultRates::uniform(0.3));
  drive(full, 200);

  FaultInjector first(42, FaultRates::uniform(0.3));
  drive(first, 120);
  const FaultInjector::State st = first.state();

  FaultInjector second(42, FaultRates::uniform(0.3));
  second.restore_state(st);
  drive(second, 80);

  EXPECT_EQ(second.events(), full.events());
  for (std::size_t s = 0; s < gpusim::kNumFaultSites; ++s) {
    const auto site = static_cast<FaultSite>(s);
    EXPECT_EQ(second.draws(site), full.draws(site));
    EXPECT_EQ(second.count(site), full.count(site));
  }
}

// ------------------------------------------------------- checkpoint/restart

namespace checkpointing {

struct Kill {};  // thrown from on_checkpoint to simulate a crash

struct Artifacts {
  std::string report, log, trace, spans, prom;

  friend bool operator==(const Artifacts&, const Artifacts&) = default;
};

Artifacts artifacts_of(const resilience::RunnerReport& r,
                       const obs::Session& sess) {
  std::ostringstream os;
  os << r;
  return Artifacts{os.str(), r.log, obs::chrome_trace_json(sess.tracer),
                   obs::span_tree_text(sess.tracer),
                   sess.metrics.prometheus_text()};
}

resilience::RunnerOptions checkpoint_opts(FaultInjector& inj,
                                          obs::Session& sess,
                                          const std::string& path) {
  resilience::RunnerOptions opts;
  opts.device = &tiny_shared_device();
  opts.faults = &inj;
  opts.obs = &sess;
  opts.checkpoint_path = path;
  return opts;
}

}  // namespace checkpointing

TEST(CheckpointResume, ByteIdenticalAfterKillAtAnyThreadCount) {
  using checkpointing::Kill;
  const graph::Graph g = chunked_graph();
  const util::TempPath dir = util::TempPath::dir("lgg-ckpt");

  // Uninterrupted reference, serial policy, checkpointing ON (the cadence
  // leaves spans and counters that a resumed run must reproduce).
  obs::Session ref_sess;
  FaultInjector ref_inj(99, FaultRates::uniform(0.1));
  const auto ref_report = resilience::run_resilient(
      g, checkpointing::checkpoint_opts(ref_inj, ref_sess,
                                        dir.path() + "/ref.ckpt"));
  const auto ref = checkpointing::artifacts_of(ref_report, ref_sess);
  ASSERT_GE(ref_report.chunks.size(), 4u);  // the kill point must be mid-run

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string path =
        dir.path() + "/t" + std::to_string(threads) + ".ckpt";
    {
      // The victim: dies right after the checkpoint for chunk 1 lands.
      obs::Session sess;
      FaultInjector inj(99, FaultRates::uniform(0.1));
      auto opts = checkpointing::checkpoint_opts(inj, sess, path);
      opts.on_checkpoint = [](std::uint32_t ci) {
        if (ci == 1) throw Kill{};
      };
      EXPECT_THROW(resilience::run_resilient(g, opts), Kill);
    }
    // A fresh "process": new session, new injector — everything restored
    // from the file.  The resumed policy may differ from the
    // checkpointing one (the fingerprint excludes ExecPolicy).
    obs::Session sess;
    FaultInjector inj(99, FaultRates::uniform(0.1));
    auto opts = checkpointing::checkpoint_opts(inj, sess, path);
    opts.exec = threads == 1 ? gpusim::ExecPolicy::serial()
                             : gpusim::ExecPolicy::parallel(threads);
    const auto report = resilience::resume_resilient(g, opts);
    EXPECT_EQ(checkpointing::artifacts_of(report, sess), ref)
        << "threads " << threads;
    EXPECT_EQ(report.triangles, ref_report.triangles);
    // The checkpoint is removed once the run completes.
    EXPECT_FALSE(std::ifstream(path).good()) << "threads " << threads;
  }
}

TEST(CheckpointResume, TamperedOrTruncatedCheckpointIsTypedThenColdRunWorks) {
  using checkpointing::Kill;
  const graph::Graph g = chunked_graph();
  const util::TempPath dir = util::TempPath::dir("lgg-ckpt");
  const std::string path = dir.path() + "/tamper.ckpt";
  {
    obs::Session sess;
    FaultInjector inj(99, FaultRates::uniform(0.1));
    auto opts = checkpointing::checkpoint_opts(inj, sess, path);
    opts.on_checkpoint = [](std::uint32_t ci) {
      if (ci == 1) throw Kill{};
    };
    EXPECT_THROW(resilience::run_resilient(g, opts), Kill);
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 64u);

  const auto expect_corrupt = [&](const std::string& mutated) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    obs::Session sess;
    FaultInjector inj(99, FaultRates::uniform(0.1));
    const auto opts = checkpointing::checkpoint_opts(inj, sess, path);
    try {
      (void)resilience::resume_resilient(g, opts);
      FAIL() << "tampered checkpoint was accepted";
    } catch (const resilience::CheckpointError& e) {
      EXPECT_EQ(e.kind(), resilience::CheckpointError::Kind::kCorrupt);
    }
  };

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;  // single-bit tamper
  expect_corrupt(flipped);
  expect_corrupt(bytes.substr(0, bytes.size() / 2));  // truncation

  // The caller-side contract: a rejected checkpoint falls back to a cold
  // run that completes exactly.
  obs::Session sess;
  FaultInjector inj(99, FaultRates::uniform(0.1));
  auto opts = checkpointing::checkpoint_opts(inj, sess, path);
  opts.checkpoint_path.clear();  // cold: no checkpointing
  const auto report = resilience::run_resilient(g, opts);
  EXPECT_EQ(report.triangles, core::count_triangles_forward(g));
  EXPECT_TRUE(report.certified);
}

TEST(CheckpointResume, MissingAndIncompatibleCheckpointsAreTyped) {
  using checkpointing::Kill;
  const graph::Graph g = chunked_graph();
  const util::TempPath dir = util::TempPath::dir("lgg-ckpt");

  const auto expect_kind = [&](const resilience::RunnerOptions& opts,
                               const graph::Graph& graph,
                               resilience::CheckpointError::Kind want) {
    try {
      (void)resilience::resume_resilient(graph, opts);
      FAIL() << "expected CheckpointError "
             << resilience::checkpoint_kind_name(want);
    } catch (const resilience::CheckpointError& e) {
      EXPECT_EQ(e.kind(), want)
          << resilience::checkpoint_kind_name(e.kind()) << ": " << e.what();
    }
  };

  // kMissing: no file at the path.
  {
    obs::Session sess;
    FaultInjector inj(99, FaultRates::uniform(0.1));
    const auto opts = checkpointing::checkpoint_opts(
        inj, sess, dir.path() + "/does_not_exist.ckpt");
    expect_kind(opts, g, resilience::CheckpointError::Kind::kMissing);
  }

  // Take a real checkpoint to misuse below.
  const std::string path = dir.path() + "/mismatch.ckpt";
  {
    obs::Session sess;
    FaultInjector inj(99, FaultRates::uniform(0.1));
    auto opts = checkpointing::checkpoint_opts(inj, sess, path);
    opts.on_checkpoint = [](std::uint32_t ci) {
      if (ci == 1) throw Kill{};
    };
    EXPECT_THROW(resilience::run_resilient(g, opts), Kill);
  }

  // kGraphMismatch: same options, different input graph.
  {
    obs::Session sess;
    FaultInjector inj(99, FaultRates::uniform(0.1));
    const auto opts = checkpointing::checkpoint_opts(inj, sess, path);
    expect_kind(opts, test_graph(),
                resilience::CheckpointError::Kind::kGraphMismatch);
  }

  // kPlanMismatch: same graph, semantically different options.
  {
    obs::Session sess;
    FaultInjector inj(99, FaultRates::uniform(0.1));
    auto opts = checkpointing::checkpoint_opts(inj, sess, path);
    opts.threads_per_block = 64;
    expect_kind(opts, g, resilience::CheckpointError::Kind::kPlanMismatch);
  }
}

TEST(CheckpointDecode, CraftedLengthsAndIntegersAreCorrupt) {
  // Every section populated, so every length field is on some line.
  resilience::Checkpoint c;
  c.n_chunks = 2;
  c.next_chunk = 1;
  c.chunks.push_back(resilience::ChunkRecord{});
  c.sm_lost = {0, 1};
  c.job_times_ns = {5, 6};
  c.log = "chunk 0 ok\n";
  c.has_faults = true;
  c.fault_seed = 7;
  c.faults.events.push_back(
      resilience::FaultEvent{FaultSite::kLaunch, 3, 0});
  c.has_obs = true;
  obs::Span span;
  span.name = "run";
  span.args.push_back(obs::SpanArg{"k", "1"});
  c.tracer.spans.push_back(span);
  c.tracer.open.emplace_back(0, 0);
  c.metrics.counters["a"] = 1;
  c.metrics.counters_f["b"] = 0.5;
  c.metrics.gauges["g"] = 2.0;
  c.metrics.histograms["h"] = obs::Histogram{{1.0}, {1, 0}, 1, 0.5};
  c.metrics.help["a"] = "help";
  const std::string text = resilience::encode_checkpoint(c);
  ASSERT_EQ(resilience::encode_checkpoint(resilience::decode_checkpoint(text)),
            text);

  constexpr std::size_t kFeCount = 3 + 3 * gpusim::kNumFaultSites;
  resilience::expect_all_corrupt(
      text,
      {
          {"sml", 1, "4000000000000"},
          {"chunks", 1, "18446744073709551615"},
          {"job", 1, "4000000000000"},
          {"fau", kFeCount, "4000000000000"},
          {"trc", 1, "4000000000000 1 0 0"},
          {"trc", 2, "4000000000000 0 0"},
          {"sp", 6, "4000000000000"},
          {"met", 1, "4000000000000 1 1 1 1"},
          {"met", 5, "4000000000000"},
          {"mh", 2, "4000000000000"},
          {"mh", 4, "4000000000000"},
          {"of", 1, "1 0"},
          {"pos", 1, "+5"},
          {"pos", 1, "-1"},
          {"pos", 1, "100000000000000000000"},
          {"acc", 1, "18446744073709551616 1 0 0 0 0"},
      },
      [](const std::string& t) { return resilience::decode_checkpoint(t); });
}

// ----------------------------------------------------------- fault campaign

TEST(FaultCampaign, TwoHundredIterationsStayExact) {
  // 200 sampled graphs through the resilient runner at a 10% fault rate:
  // zero findings means recovery reproduced the oracle count every time.
  fuzz::EngineOptions opts;
  opts.master_seed = 77;
  opts.max_iterations = 200;
  opts.limits.max_vertices = 24;
  opts.shrink = false;
  opts.policies = {gpusim::ExecPolicy::serial()};
  opts.fault_rate = 0.1;
  opts.fault_seed = 7;
  // Only the fault path: the cross-product paths have their own suites.
  opts.paths = {fuzz::resilient_fault_path(0.1, 7, 3, Failover::kCpu)};
  const auto result = fuzz::run_campaign(opts);
  EXPECT_EQ(result.iterations, 200u);
  EXPECT_EQ(result.findings_count, 0u) << result.log;
}

TEST(FaultCampaign, LogIsByteIdenticalAcrossThreadCounts) {
  auto campaign = [](std::size_t threads) {
    fuzz::EngineOptions opts;
    opts.master_seed = 13;
    opts.max_iterations = 40;
    opts.limits.max_vertices = 20;
    opts.shrink = false;
    opts.policies = {gpusim::ExecPolicy::parallel(threads)};
    opts.fault_rate = 0.15;
    opts.fault_seed = 3;
    opts.paths = {fuzz::resilient_fault_path(0.15, 3, 3, Failover::kCpu)};
    return fuzz::run_campaign(opts);
  };
  const auto a = campaign(1);
  const auto b = campaign(4);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.findings_count, b.findings_count);
}

}  // namespace
