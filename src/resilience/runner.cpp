#include "resilience/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "core/als_plan.hpp"
#include "graph/bfs.hpp"
#include "graph/chunking.hpp"
#include "graph/digest.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/memory.hpp"
#include "resilience/checkpoint.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace lgg::resilience {

namespace cal = gpusim::calibration;

const char* failover_name(Failover f) noexcept {
  switch (f) {
    case Failover::kOff:
      return "off";
    case Failover::kCpu:
      return "cpu";
    case Failover::kStream:
      return "stream";
  }
  return "?";
}

const char* chunk_outcome_name(ChunkOutcome o) noexcept {
  switch (o) {
    case ChunkOutcome::kGpu:
      return "gpu";
    case ChunkOutcome::kGpuRetried:
      return "gpu-retried";
    case ChunkOutcome::kCpuFailover:
      return "cpu-failover";
    case ChunkOutcome::kStreamFailover:
      return "stream-failover";
    case ChunkOutcome::kFailed:
      return "failed";
    case ChunkOutcome::kSalvaged:
      return "salvaged";
  }
  return "?";
}

double RetryPolicy::backoff_s(std::uint32_t retry) const noexcept {
  double b = base_backoff_s;
  for (std::uint32_t i = 0; i < retry && b < max_backoff_s; ++i) b *= 2.0;
  return std::min(b, max_backoff_s);
}

namespace {

/// True when the cursor's current test is a triangle of g.
bool is_triangle(const graph::Graph& g, const core::TestCursor& cursor) {
  const core::AlsJob& job = cursor.job();
  const core::TestTriple& t = cursor.triple();
  const graph::Vertex u = job.local_to_global[t.x];
  const graph::Vertex v = job.local_to_global[t.y];
  const graph::Vertex w = job.local_to_global[t.z];
  return g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w);
}

/// Streaming recount of a chunk's test space in bounded batches: each
/// batch seeks its start test with the closed-form decode and steps
/// forward, so the working set never exceeds one batch — the same regime
/// as the external-memory streaming counter, applied per chunk.  Result
/// is identical to count_chunk_cpu.
std::uint64_t count_chunk_stream(const graph::Graph& g,
                                 const core::ChunkWork& work,
                                 std::uint64_t batch_tests) {
  const std::uint64_t batch = std::max<std::uint64_t>(batch_tests, 1);
  std::uint64_t found = 0;
  for (std::uint64_t start = 0; start < work.tests; start += batch) {
    const std::uint64_t end = std::min(work.tests, start + batch);
    core::TestCursor cursor(work.jobs);
    cursor.seek(start);
    for (std::uint64_t i = start; i < end; ++i) {
      if (i > start) {
        const bool more = cursor.next();
        LGG_ASSERT(more);
      }
      if (is_triangle(g, cursor)) ++found;
    }
  }
  return found;
}

/// Modelled host time for recounting `tests` candidate triples.
double host_count_time_s(std::uint64_t tests) {
  return static_cast<double>(tests) * cal::kCpuCyclesPerTest /
         (cal::kCpuClockGhz * 1e9);
}

struct LostRecount {
  std::uint64_t tests = 0;
  std::uint64_t found = 0;
};

/// Host recount of exactly the tests LOST to an SM abort: every test
/// whose warp — under the chunk kernel's cyclic flat mapping, warp of
/// flat index f is (f mod tpb) / warp_size — had not completed at the
/// abort boundary.  Together with the harvested slots of the completed
/// warps this certifies the chunk: completed-warp replay is pure, so
/// those slots equal a fault-free run's, and the recount covers the
/// complement exactly.
LostRecount recount_lost_tests(const graph::Graph& g,
                               const core::ChunkWork& work,
                               const core::ChunkSalvage& salv,
                               std::uint32_t tpb, std::uint32_t warp_size) {
  LostRecount out;
  if (work.tests == 0) return out;
  core::TestCursor cursor(work.jobs);
  cursor.seek(0);
  std::uint64_t flat = 0;
  do {
    const std::uint64_t warp = (flat++ % tpb) / warp_size;
    if (salv.warp_done[warp] == 0) {
      ++out.tests;
      if (is_triangle(g, cursor)) ++out.found;
    }
  } while (cursor.next());
  return out;
}

/// The chunk loop shared by cold and resumed runs.  `ck` non-null resumes
/// from a validated checkpoint: the (deterministic) plan is recomputed
/// silently, the injector and observability state were captured at the
/// checkpoint boundary, and the loop continues at the first incomplete
/// chunk — everything downstream is byte-identical to an uninterrupted
/// run.
RunnerReport run_impl(const graph::Graph& g, const RunnerOptions& opts,
                      const Checkpoint* ck) {
  const std::uint32_t tpb = opts.threads_per_block;
  const gpusim::DeviceSpec& dev = core::launch_shape(opts.device, 1, tpb).dev;

  // A resumed run's tracer snapshot already holds the open driver frame
  // and the plan/retry-policy spans, so those are cold-run only (their
  // sessions are null on resume; the plan itself is still recomputed).
  obs::Session* cold_obs = ck == nullptr ? opts.obs : nullptr;
  std::optional<obs::Scope> driver;
  driver.emplace(cold_obs, "resilient/run", "driver");
  if (*driver) {
    driver->arg("failover", failover_name(opts.failover));
    driver->arg("max_retries",
                static_cast<std::uint64_t>(opts.retry.max_retries));
    driver->arg("verify", opts.verify);
  }
  // --- Algorithm 1 (or a catalog-resident plan of it) ---
  const core::ChunkedPlan chunked =
      core::plan_chunked_run(g, dev, opts.metric, opts.prepared, cold_obs,
                             /*components_arg=*/false);
  const core::AlsPrecomputed& plan = chunked.plan();
  const graph::ChunkingResult& chunking = plan.chunking;
  const std::size_t n_chunks = chunking.chunks.size();
  const std::vector<core::ChunkWork>& works = plan.works;
  const std::vector<std::uint64_t>& test_sizes = plan.chunk_tests;

  // Checkpoint compatibility + state restore (after the plan exists, so
  // a plan mismatch is rejected BEFORE the session or injector mutate).
  if (ck != nullptr) {
    if (ck->n_chunks != n_chunks ||
        ck->plan_digest != plan_digest_of(test_sizes))
      throw CheckpointError(
          CheckpointError::Kind::kPlanMismatch,
          "checkpointed chunk plan does not match this run's plan");
    if (ck->chunks.size() != ck->next_chunk || ck->next_chunk > n_chunks ||
        ck->sm_lost.size() != dev.sm_count ||
        ck->job_times_ns.size() != n_chunks)
      throw CheckpointError(
          CheckpointError::Kind::kCorrupt,
          "checkpoint state sizes inconsistent with the plan");
    if (opts.faults != nullptr) opts.faults->restore_state(ck->faults);
    if (opts.obs != nullptr) {
      opts.obs->tracer.restore(ck->tracer);
      opts.obs->metrics.restore(ck->metrics);
    }
  }

  // Always-present record of the retry controller's configuration (so a
  // fault-free trace still carries the retry phase; actual backoff spans
  // appear under the chunks that retried).
  {
    obs::Scope span(cold_obs, "retry/policy", "retry");
    if (span) {
      span.arg("max_retries",
               static_cast<std::uint64_t>(opts.retry.max_retries));
      span.arg("base_backoff_s", opts.retry.base_backoff_s);
      span.arg("max_backoff_s", opts.retry.max_backoff_s);
    }
  }

  // Planned SM per chunk (LPT over test counts): where each chunk WOULD
  // run on the device.  An SM abort during a chunk's attempt is
  // attributed to its planned SM, which is then treated as lost for the
  // final schedule repair.
  const sched::Assignment planned = sched::lpt_schedule(test_sizes, dev.sm_count);

  // Options for the chunk kernel launches (the sim/mem pair is created
  // fresh per attempt; the faults hook rides on those, not on `inner`).
  core::HybridOptions inner;
  inner.device = &dev;
  inner.metric = opts.metric;
  inner.threads_per_block = tpb;
  inner.exec = opts.exec;
  inner.sancheck = opts.sancheck;
  inner.obs = opts.obs;
  inner.prof = opts.prof;

  RunnerReport report;
  report.exact = true;
  RecoveryStats& stats = report.recovery;
  std::ostringstream log;
  std::vector<std::uint8_t> sm_lost(dev.sm_count, 0);
  std::vector<std::uint64_t> job_times_ns(n_chunks, 0);
  double host_time_s = 0.0;   // serial host failover/salvage work
  double camping_sum = 0.0, tps_sum = 0.0;
  std::size_t first_chunk = 0;

  if (ck != nullptr) {
    report.triangles = ck->triangles;
    report.exact = ck->exact;
    report.total_tests = ck->total_tests;
    report.chunks = ck->chunks;
    stats = ck->recovery;
    report.device.kernels = ck->dev_kernels;
    report.device.transactions = ck->dev_transactions;
    report.device.kernel_time_s = ck->dev_kernel_time_s;
    report.device.host_to_device.bytes = ck->h2d_bytes;
    report.device.host_to_device.time_s = ck->h2d_time_s;
    sm_lost = ck->sm_lost;
    job_times_ns = ck->job_times_ns;
    host_time_s = ck->host_time_s;
    camping_sum = ck->camping_sum;
    tps_sum = ck->tps_sum;
    log << ck->log;
    first_chunk = static_cast<std::size_t>(ck->next_chunk);
  } else {
    log << "resilient: chunks=" << n_chunks << " device=" << dev.sm_count
        << "sm failover=" << failover_name(opts.failover)
        << " max-retries=" << opts.retry.max_retries
        << " verify=" << (opts.verify ? 1 : 0);
    if (opts.faults != nullptr)
      log << " fault-seed=" << opts.faults->seed();
    log << "\n";
  }

  // Durable checkpoint cadence.  The counter starts at zero both on cold
  // start and on resume: a resumed run begins exactly at a checkpoint
  // boundary, so the write pattern — and the checkpoint spans/counters it
  // leaves in the trace — matches an uninterrupted run's.
  const bool checkpointing = !opts.checkpoint_path.empty();
  const std::uint32_t ckpt_every =
      std::max<std::uint32_t>(opts.checkpoint_every_chunks, 1);
  std::uint32_t since_ckpt = 0;
  const std::uint64_t graph_dig = checkpointing ? graph::graph_digest(g) : 0;
  const std::uint64_t options_fp =
      checkpointing ? runner_options_fingerprint(opts, dev) : 0;
  const std::uint64_t plan_dig =
      checkpointing ? plan_digest_of(test_sizes) : 0;

  for (std::size_t ci = first_chunk; ci < n_chunks; ++ci) {
    const graph::Chunk& chunk = chunking.chunks[ci];
    const core::ChunkWork& work = works[ci];

    ChunkRecord rec;
    rec.chunk = static_cast<std::uint32_t>(ci);
    rec.tests = work.tests;
    rec.shared_resident = chunk.fits_shared;
    report.total_tests += work.tests;

    if (work.tests == 0) {
      rec.certified = true;
      report.chunks.push_back(rec);
    } else {
      obs::Scope chunk_span(opts.obs,
                            opts.obs != nullptr
                                ? "chunk[" + std::to_string(ci) + "]"
                                : std::string(),
                            "chunk");
      if (chunk_span) {
        chunk_span.arg("tests", work.tests);
        chunk_span.arg("shared_resident", chunk.fits_shared);
      }

      // The chunk's exact count, computed at most once (verification
      // invariant and CPU failover value share it).
      std::optional<std::uint64_t> oracle;
      const auto chunk_oracle = [&]() -> std::uint64_t {
        if (!oracle) oracle = core::count_chunk_cpu(g, work);
        return *oracle;
      };

      const std::uint32_t max_attempts = opts.retry.max_retries + 1;
      bool accepted = false;
      for (std::uint32_t attempt = 0; attempt < max_attempts && !accepted;
           ++attempt) {
        if (attempt > 0) {
          const double b = opts.retry.backoff_s(attempt - 1);
          rec.backoff_s += b;
          stats.backoff_s += b;
          ++stats.retries;
          obs::Scope span(opts.obs, "retry/backoff", "retry");
          span.model_s(b);
          if (span) {
            span.arg("attempt", static_cast<std::uint64_t>(attempt));
            span.arg("backoff_s", b);
          }
          if (opts.obs != nullptr) {
            opts.obs->metrics.count("lgg_resilience_retries_total");
            opts.obs->metrics.count_f("lgg_resilience_backoff_seconds_total",
                                      b);
          }
        }
        ++rec.attempts;

        // Fresh device state per attempt: nothing survives a fault.
        gpusim::DeviceMemory mem(dev, opts.faults);
        const gpusim::Simulator sim(dev, opts.faults);
        core::ChunkSalvage salv;
        bool attempt_corrupted = false;
        try {
          const gpusim::TransferReport tr =
              core::stage(inner, sim, core::chunk_device_bytes(chunk));
          report.device.host_to_device.bytes += tr.bytes;
          report.device.host_to_device.time_s += tr.time_s;
          attempt_corrupted = tr.corrupted;
          if (tr.corrupted) {
            ++rec.corruptions;
            ++rec.faults;
            ++stats.by_site[static_cast<std::size_t>(
                gpusim::FaultSite::kTransfer)];
            if (opts.obs != nullptr)
              opts.obs->metrics.count(
                  "lgg_resilience_faults_total", 1,
                  "site=\"transfer\"");
          }

          const core::ChunkLaunch launch = core::run_chunk_kernel(
              g, chunk, work, sim, mem, inner,
              opts.salvage ? &salv : nullptr);
          LGG_ASSERT(launch.simulated == work.tests);

          std::uint64_t count = launch.triangles;
          // A corrupted staging transfer garbles the adjacency data the
          // kernel probed; model the wrong-but-plausible result with a
          // deterministic perturbation (always != the true count, so the
          // recount invariant is guaranteed to catch it when enabled).
          if (tr.corrupted) count += 1 + tr.bytes % 7;

          if (opts.verify && count != chunk_oracle()) {
            ++stats.corruptions_detected;
            if (opts.obs != nullptr)
              opts.obs->metrics.count(
                  "lgg_resilience_corruptions_detected_total");
            continue;  // discard the attempt; retry with backoff
          }

          rec.triangles = count;
          rec.time_s = launch.report.kernel_time_s;
          rec.outcome =
              attempt == 0 ? ChunkOutcome::kGpu : ChunkOutcome::kGpuRetried;
          rec.certified = opts.verify;
          accepted = true;

          ++report.device.kernels;
          report.device.transactions += launch.report.transactions;
          report.device.kernel_time_s += launch.report.kernel_time_s;
          camping_sum += launch.report.camping_factor;
          tps_sum += launch.report.transactions_per_slot();
        } catch (const gpusim::DeviceFault& f) {
          ++rec.faults;
          ++stats.by_site[static_cast<std::size_t>(f.site())];
          if (f.site() == gpusim::FaultSite::kSmAbort)
            sm_lost[planned.machine_of[ci]] = 1;
          if (opts.obs != nullptr)
            opts.obs->metrics.count(
                "lgg_resilience_faults_total", 1,
                std::string("site=\"") + gpusim::fault_site_name(f.site()) +
                    "\"");

          // Partial-result salvage (DESIGN.md §16): the abort boundary
          // partitioned the warps; keep the completed warps' harvested
          // slots and host-recount only the lost remainder.  Skipped
          // when the attempt's staging transfer was corrupted — the
          // completed warps then probed garbled data, so nothing from
          // the attempt is trustworthy.
          if (f.site() == gpusim::FaultSite::kSmAbort && opts.salvage &&
              !attempt_corrupted && salv.warps_total > 0 &&
              salv.warps_completed > 0) {
            const LostRecount lost =
                recount_lost_tests(g, work, salv, tpb, dev.warp_size);
            LGG_ASSERT(salv.simulated + lost.tests == work.tests);
            rec.triangles = salv.triangles + lost.found;
            rec.outcome = ChunkOutcome::kSalvaged;
            rec.certified = true;
            rec.salvaged_warps = salv.warps_completed;
            rec.salvaged_tests = salv.simulated;
            rec.recounted_tests = lost.tests;
            rec.time_s = host_count_time_s(lost.tests);
            host_time_s += rec.time_s;
            stats.salvaged_warps += rec.salvaged_warps;
            stats.salvaged_tests += rec.salvaged_tests;
            stats.recounted_tests += rec.recounted_tests;
            accepted = true;
            obs::Scope span(opts.obs, "salvage/recount", "salvage");
            span.model_s(rec.time_s);
            if (span) {
              span.arg("salvaged_warps", rec.salvaged_warps);
              span.arg("salvaged_tests", rec.salvaged_tests);
              span.arg("recounted_tests", rec.recounted_tests);
            }
            if (opts.obs != nullptr) {
              opts.obs->metrics.count("lgg_resilience_salvaged_warps_total",
                                      rec.salvaged_warps);
              opts.obs->metrics.count("lgg_resilience_salvaged_tests_total",
                                      rec.salvaged_tests);
              opts.obs->metrics.count(
                  "lgg_resilience_recounted_tests_total",
                  rec.recounted_tests);
            }
          }
        }
      }

      if (!accepted) {
        obs::Scope failover_span(opts.obs,
                                 std::string("failover/") +
                                     failover_name(opts.failover),
                                 "failover");
        switch (opts.failover) {
          case Failover::kCpu:
            rec.triangles = chunk_oracle();
            rec.outcome = ChunkOutcome::kCpuFailover;
            rec.certified = true;
            rec.time_s = host_count_time_s(work.tests);
            host_time_s += rec.time_s;
            ++stats.cpu_failovers;
            break;
          case Failover::kStream:
            rec.triangles =
                count_chunk_stream(g, work, opts.stream_batch_tests);
            rec.outcome = ChunkOutcome::kStreamFailover;
            rec.certified = true;
            rec.time_s = host_count_time_s(work.tests);
            host_time_s += rec.time_s;
            ++stats.stream_failovers;
            break;
          case Failover::kOff:
            rec.outcome = ChunkOutcome::kFailed;
            ++stats.failed_chunks;
            report.exact = false;
            break;
        }
        if (rec.outcome == ChunkOutcome::kCpuFailover ||
            rec.outcome == ChunkOutcome::kStreamFailover)
          failover_span.model_s(rec.time_s);
        if (opts.obs != nullptr) {
          if (rec.outcome == ChunkOutcome::kFailed) {
            opts.obs->metrics.count("lgg_resilience_failed_chunks_total");
          } else {
            opts.obs->metrics.count(
                "lgg_resilience_failovers_total", 1,
                std::string("kind=\"") + failover_name(opts.failover) + "\"");
          }
        }
      }

      report.triangles += rec.triangles;
      // Only device-executed chunks occupy an SM in the final schedule;
      // failover and salvage-recount work runs on the host and is charged
      // serially.
      if (rec.outcome == ChunkOutcome::kGpu ||
          rec.outcome == ChunkOutcome::kGpuRetried)
        job_times_ns[ci] = static_cast<std::uint64_t>(rec.time_s * 1e9);

      log << "chunk " << ci << ": tests=" << rec.tests
          << (rec.shared_resident ? " shared" : " global")
          << " attempts=" << rec.attempts << " faults=" << rec.faults
          << " corruptions=" << rec.corruptions
          << " outcome=" << chunk_outcome_name(rec.outcome)
          << " triangles=" << rec.triangles
          << " certified=" << (rec.certified ? 1 : 0);
      if (rec.outcome == ChunkOutcome::kSalvaged)
        log << " salvaged-warps=" << rec.salvaged_warps
            << " salvaged-tests=" << rec.salvaged_tests
            << " recounted-tests=" << rec.recounted_tests;
      log << "\n";
      if (chunk_span) {
        chunk_span.arg("outcome", chunk_outcome_name(rec.outcome));
        chunk_span.arg("attempts", static_cast<std::uint64_t>(rec.attempts));
      }
      if (opts.obs != nullptr)
        opts.obs->metrics.count(
            "lgg_resilience_chunks_total", 1,
            std::string("outcome=\"") + chunk_outcome_name(rec.outcome) +
                "\"");
      report.chunks.push_back(std::move(rec));
    }

    // Durable checkpoint at the cadence boundary (never after the final
    // chunk — the finished run deletes the file anyway).  The write span
    // and counter are part of the deterministic trace: the uninterrupted
    // reference run checkpoints at the same boundaries, so a resumed
    // run's outputs still match it byte-for-byte.  The observability
    // snapshot is taken AFTER the span closes and the counter bumps, so
    // the restored state already contains this write's own footprint.
    if (checkpointing && ++since_ckpt == ckpt_every && ci + 1 < n_chunks) {
      since_ckpt = 0;
      {
        obs::Scope span(opts.obs, "checkpoint/write", "checkpoint");
        if (span) span.arg("chunk", static_cast<std::uint64_t>(ci));
      }
      if (opts.obs != nullptr)
        opts.obs->metrics.count("lgg_resilience_checkpoints_total");
      Checkpoint c;
      c.graph_digest = graph_dig;
      c.options_fp = options_fp;
      c.plan_digest = plan_dig;
      c.n_chunks = n_chunks;
      c.next_chunk = ci + 1;
      c.triangles = report.triangles;
      c.exact = report.exact;
      c.total_tests = report.total_tests;
      c.host_time_s = host_time_s;
      c.camping_sum = camping_sum;
      c.tps_sum = tps_sum;
      c.dev_kernels = report.device.kernels;
      c.dev_transactions = report.device.transactions;
      c.dev_kernel_time_s = report.device.kernel_time_s;
      c.h2d_bytes = report.device.host_to_device.bytes;
      c.h2d_time_s = report.device.host_to_device.time_s;
      c.chunks = report.chunks;
      c.recovery = stats;
      c.sm_lost = sm_lost;
      c.job_times_ns = job_times_ns;
      c.log = log.str();
      if (opts.faults != nullptr) {
        c.has_faults = true;
        c.fault_seed = opts.faults->seed();
        c.faults = opts.faults->state();
      }
      if (opts.obs != nullptr) {
        c.has_obs = true;
        c.tracer = opts.obs->tracer.state();
        c.metrics = opts.obs->metrics.state();
      }
      save_checkpoint(opts.checkpoint_path, c);
      if (opts.on_checkpoint)
        opts.on_checkpoint(static_cast<std::uint32_t>(ci));
    }
  }

  for (std::size_t s = 0; s < gpusim::kNumFaultSites; ++s)
    stats.faults += stats.by_site[s];
  report.certified = report.exact;
  for (const ChunkRecord& rec : report.chunks)
    if (!rec.certified) report.certified = false;

  // --- Section VI schedule over the device chunks, repaired for loss ---
  obs::Scope sched_span(opts.obs,
                        std::string("schedule/") +
                            core::scheduler_name(opts.scheduler),
                        "schedule");
  report.schedule =
      core::schedule_chunks(opts.scheduler, job_times_ns, dev.sm_count);
  for (std::uint32_t s = 0; s < dev.sm_count; ++s)
    if (sm_lost[s] != 0) report.lost_sms.push_back(s);
  if (!report.lost_sms.empty() &&
      report.lost_sms.size() < dev.sm_count) {
    report.schedule =
        sched::reassign_after_loss(job_times_ns, report.schedule,
                                   report.lost_sms);
  }
  for (std::size_t ci = 0; ci < report.chunks.size(); ++ci)
    report.chunks[ci].sm = report.schedule.machine_of[ci];
  report.makespan_s = static_cast<double>(report.schedule.makespan) * 1e-9;
  if (sched_span) {
    sched_span.arg("machines", static_cast<std::uint64_t>(dev.sm_count));
    sched_span.arg("lost_sms",
                   static_cast<std::uint64_t>(report.lost_sms.size()));
    sched_span.arg("makespan_s", report.makespan_s);
  }
  sched_span.close();

  // --- end-to-end modelled time ---
  // On resume the restored driver frame takes the charge directly (the
  // cold-run Scope is a null-session no-op there).
  driver->model_s(cal::kDispatchOverheadS + cal::kDeviceInitOverheadS);
  if (ck != nullptr && opts.obs != nullptr)
    opts.obs->tracer.charge_s(cal::kDispatchOverheadS +
                              cal::kDeviceInitOverheadS);
  report.total_time_s = chunked.preprocessing_s() +
                        report.device.host_to_device.time_s +
                        cal::kDispatchOverheadS + cal::kDeviceInitOverheadS +
                        report.makespan_s + host_time_s + stats.backoff_s;
  report.device.total_time_s = report.total_time_s;
  if (report.device.kernels > 0) {
    report.device.mean_camping_factor =
        camping_sum / static_cast<double>(report.device.kernels);
    report.device.mean_transactions_per_slot =
        tps_sum / static_cast<double>(report.device.kernels);
  }
  report.device.faults_injected = stats.faults;
  report.device.retries = stats.retries;
  report.device.failovers = stats.cpu_failovers + stats.stream_failovers;

  log << "faults:";
  for (std::size_t s = 0; s < gpusim::kNumFaultSites; ++s)
    log << " " << gpusim::fault_site_name(static_cast<gpusim::FaultSite>(s))
        << "=" << stats.by_site[s];
  log << "\n";
  if (stats.salvaged_warps != 0)
    log << "salvage: warps=" << stats.salvaged_warps
        << " tests=" << stats.salvaged_tests
        << " recounted=" << stats.recounted_tests << "\n";
  log << "lost-sms:";
  for (const std::uint32_t s : report.lost_sms) log << " " << s;
  log << "\ntotal: triangles=" << report.triangles
      << " exact=" << (report.exact ? 1 : 0)
      << " certified=" << (report.certified ? 1 : 0)
      << " faults=" << stats.faults << " retries=" << stats.retries
      << " corruptions-detected=" << stats.corruptions_detected
      << " cpu-failovers=" << stats.cpu_failovers
      << " stream-failovers=" << stats.stream_failovers
      << " failed=" << stats.failed_chunks << "\n";
  report.log = log.str();

  // The run completed: the checkpoint has served its purpose.
  if (checkpointing) std::remove(opts.checkpoint_path.c_str());
  // Resume path: close the restored driver frame (the cold path's Scope
  // closes its own span on destruction).
  if (ck != nullptr && opts.obs != nullptr)
    opts.obs->tracer.end(opts.obs->tracer.open_top());
  return report;
}

}  // namespace

RunnerReport run_resilient(const graph::Graph& g, const RunnerOptions& opts) {
  return run_impl(g, opts, nullptr);
}

RunnerReport resume_resilient(const graph::Graph& g,
                              const RunnerOptions& opts) {
  LGG_CHECK(!opts.checkpoint_path.empty(),
            "resume_resilient requires RunnerOptions::checkpoint_path");
  const gpusim::DeviceSpec& dev = core::device_or_default(opts.device);
  const Checkpoint ck = load_checkpoint(opts.checkpoint_path);
  const std::uint64_t gd = graph::graph_digest(g);
  if (ck.graph_digest != gd)
    throw CheckpointError(
        CheckpointError::Kind::kGraphMismatch,
        "checkpoint was taken for a different graph (digest " +
            graph::digest_hex(ck.graph_digest) + ", this graph is " +
            graph::digest_hex(gd) + ")");
  if (ck.options_fp != runner_options_fingerprint(opts, dev))
    throw CheckpointError(
        CheckpointError::Kind::kPlanMismatch,
        "checkpointed options fingerprint does not match this run's "
        "options");
  if (ck.has_faults != (opts.faults != nullptr) ||
      (ck.has_faults && ck.fault_seed != opts.faults->seed()))
    throw CheckpointError(
        CheckpointError::Kind::kPlanMismatch,
        "fault injector configuration differs from the checkpointed run");
  if (ck.has_obs != (opts.obs != nullptr))
    throw CheckpointError(
        CheckpointError::Kind::kPlanMismatch,
        "observability session presence differs from the checkpointed run");
  return run_impl(g, opts, &ck);
}

std::ostream& operator<<(std::ostream& os, const RunnerReport& r) {
  os << "resilient run: " << r.triangles << " triangles over "
     << r.total_tests << " tests, " << r.chunks.size() << " chunk(s), "
     << (r.certified ? "certified exact"
                     : (r.exact ? "exact (uncertified)" : "INEXACT"));
  os << "\n  recovery: " << r.recovery.faults << " fault(s)";
  for (std::size_t s = 0; s < gpusim::kNumFaultSites; ++s)
    if (r.recovery.by_site[s] != 0)
      os << ", " << gpusim::fault_site_name(static_cast<gpusim::FaultSite>(s))
         << " x" << r.recovery.by_site[s];
  os << "; " << r.recovery.retries << " retr"
     << (r.recovery.retries == 1 ? "y" : "ies") << ", "
     << r.recovery.corruptions_detected << " corruption(s) detected, "
     << r.recovery.cpu_failovers + r.recovery.stream_failovers
     << " failover(s), " << r.recovery.failed_chunks << " failed";
  if (r.recovery.salvaged_warps != 0)
    os << "\n  salvage: " << r.recovery.salvaged_warps << " warp(s) kept ("
       << r.recovery.salvaged_tests << " test(s)), "
       << r.recovery.recounted_tests << " test(s) recounted";
  if (!r.lost_sms.empty()) {
    os << "\n  lost SMs:";
    for (const std::uint32_t s : r.lost_sms) os << " " << s;
    os << " (schedule repaired)";
  }
  os << "\n  modelled: makespan " << format_seconds(r.makespan_s)
     << ", backoff " << format_seconds(r.recovery.backoff_s) << ", total "
     << format_seconds(r.total_time_s);
  return os;
}

}  // namespace lgg::resilience
