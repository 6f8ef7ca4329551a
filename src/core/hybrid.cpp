#include "core/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "core/als_plan.hpp"
#include "graph/bfs.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/memory.hpp"
#include "util/error.hpp"

namespace lgg::core {

namespace cal = gpusim::calibration;

const char* scheduler_name(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kList:
      return "list";
    case SchedulerKind::kLpt:
      return "LPT";
    case SchedulerKind::kMultifit:
      return "MULTIFIT";
  }
  return "?";
}

sched::Assignment schedule_chunks(SchedulerKind kind,
                                  const std::vector<std::uint64_t>& jobs,
                                  std::uint32_t machines) {
  switch (kind) {
    case SchedulerKind::kList:
      return sched::list_schedule(jobs, machines);
    case SchedulerKind::kLpt:
      return sched::lpt_schedule(jobs, machines);
    case SchedulerKind::kMultifit:
      return sched::multifit_schedule(jobs, machines);
  }
  return {};
}

ChunkWork build_chunk_work(const graph::Chunk& chunk,
                           const graph::LevelDecomposition& levels) {
  ChunkWork work;
  work.tests = append_als_jobs(levels, chunk.component, chunk.first_level,
                               chunk.last_level, 0, work.jobs);
  return work;
}

std::uint64_t chunk_device_bytes(const graph::Chunk& chunk) {
  const std::uint64_t local_n = chunk.vertices.size();
  const std::uint64_t row_bytes = ((local_n + 31) / 32) * 4;
  return std::max<std::uint64_t>(local_n * row_bytes, 4);
}

std::uint64_t count_chunk_cpu(const graph::Graph& g, const ChunkWork& work) {
  std::uint64_t found = 0;
  for (const AlsJob& job : work.jobs) {
    for (std::uint32_t x = 0; x < job.x_max; ++x) {
      const graph::Vertex u = job.local_to_global[x];
      for (std::uint32_t y = x + 1; y < job.s; ++y) {
        const graph::Vertex v = job.local_to_global[y];
        if (!g.has_edge(u, v)) continue;  // no (u,v) edge: no triangle uvz
        for (std::uint32_t z = y + 1; z < job.s; ++z) {
          const graph::Vertex w = job.local_to_global[z];
          if (g.has_edge(v, w) && g.has_edge(u, w)) ++found;
        }
      }
    }
  }
  return found;
}

ChunkLaunch run_chunk_kernel(const graph::Graph& g, const graph::Chunk& chunk,
                             const ChunkWork& work,
                             const gpusim::Simulator& sim,
                             gpusim::DeviceMemory& mem,
                             const HybridOptions& opts,
                             ChunkSalvage* salvage) {
  const gpusim::DeviceSpec& dev = sim.spec();
  const std::uint32_t tpb =
      launch_shape(&dev, 1, opts.threads_per_block).threads_per_block;
  LGG_CHECK(work.tests > 0, "run_chunk_kernel: chunk owns no tests");

  // Global-resident chunks keep their local adjacency matrix in device
  // global memory (packed rows); shared chunks only pay the staging copy.
  const std::uint64_t local_n = chunk.vertices.size();
  const std::uint64_t row_bytes = ((local_n + 31) / 32) * 4;
  gpusim::Buffer buffer{};
  if (!chunk.fits_shared) buffer = mem.alloc(chunk_device_bytes(chunk));

  // Chunk-position tables, built once per launch: AlsJob locals index
  // into job.local_to_global (component ids), while the chunk matrix is
  // indexed by position within chunk.vertices (sorted).  Job j's local id
  // x sits at chunk position chunk_pos[pos_begin[j] + x].
  const auto& chunk_vs = chunk.vertices;
  std::vector<std::size_t> pos_begin(work.jobs.size());
  std::vector<std::uint32_t> chunk_pos;
  for (std::size_t j = 0; j < work.jobs.size(); ++j) {
    pos_begin[j] = chunk_pos.size();
    for (const graph::Vertex v : work.jobs[j].local_to_global) {
      const auto it = std::lower_bound(chunk_vs.begin(), chunk_vs.end(), v);
      LGG_ASSERT(it != chunk_vs.end() && *it == v);
      chunk_pos.push_back(static_cast<std::uint32_t>(it - chunk_vs.begin()));
    }
  }

  // Per-thread budget (test sampling).
  const std::uint64_t threads = tpb;  // one block == one SM job
  std::uint64_t per_thread = (work.tests + threads - 1) / threads;
  if (opts.max_simulated_tests_per_chunk > 0) {
    per_thread = std::min(
        per_thread,
        std::max<std::uint64_t>(1,
                                opts.max_simulated_tests_per_chunk / threads));
  }

  // Per-warp functional output slots (simulator thread-safety contract:
  // warps replay concurrently; everything else captured is read-only).
  const std::uint64_t chunk_warps = tpb / dev.warp_size;  // one block
  std::vector<std::uint64_t> warp_simulated(chunk_warps, 0);
  std::vector<std::uint64_t> warp_found(chunk_warps, 0);
  // Shared-resident chunks stage the S-UTM into shared memory first:
  // every thread writes a strided slice of the packed words, then the
  // block barriers (the simulated __syncthreads), and only then probes.
  // The sync annotation is what tells sancheck the write and read
  // phases are ordered — without it every probe would race the staging.
  const std::uint64_t utm_words = (local_n * (local_n - 1) / 2 + 31) / 32;
  const gpusim::KernelFn kernel = [&](const gpusim::ThreadCtx& ctx,
                                      gpusim::ThreadRecorder& rec) {
    if (chunk.fits_shared) {
      for (std::uint64_t w = ctx.thread; w < utm_words; w += threads) {
        rec.shared_write(w * 4);
        rec.compute(1);
      }
      rec.sync();
    }
    TestCursor cursor(work.jobs);
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      // Cyclic mapping: consecutive lanes take consecutive flat
      // indices, giving z-runs within a warp (coalescing / low bank
      // conflict), exactly like the improved global kernel.
      const std::uint64_t flat = ctx.global_id + i * threads;
      if (flat >= work.tests) break;
      cursor.seek(flat);
      const AlsJob& job = cursor.job();
      const TestTriple& t = cursor.triple();
      const graph::Vertex u = job.local_to_global[t.x];
      const graph::Vertex v = job.local_to_global[t.y];
      const graph::Vertex w = job.local_to_global[t.z];

      rec.compute(cal::kGpuInstructionsPerTest);
      const std::uint32_t* pos =
          chunk_pos.data() + pos_begin[cursor.job_index()];
      const std::uint64_t lu = pos[t.x], lv = pos[t.y], lw = pos[t.z];
      if (chunk.fits_shared) {
        // S-UTM layout in shared memory: word of pair (i < j), bit
        // index i*(2n - i - 1)/2 + (j - i - 1).
        const auto word = [&](std::uint64_t a, std::uint64_t b) {
          if (a > b) std::swap(a, b);
          const std::uint64_t bit =
              a * (2 * local_n - a - 1) / 2 + (b - a - 1);
          return (bit / 32) * 4;
        };
        rec.shared_read(word(lu, lv));
        rec.shared_read(word(lv, lw));
        rec.shared_read(word(lu, lw));
      } else {
        const auto word = [&](std::uint64_t a, std::uint64_t b) {
          return a * row_bytes + (b >> 5) * 4;
        };
        rec.global_read(buffer, word(lu, lv), 4);
        rec.global_read(buffer, word(lv, lw), 4);
        rec.global_read(buffer, word(lu, lw), 4);
      }
      if (g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w))
        ++warp_found[ctx.global_warp];
      ++warp_simulated[ctx.global_warp];
    }
  };

  // Global-resident chunks read a host-staged matrix; shared chunks only
  // touch shared memory (race-checked via sync epochs).
  ChunkLaunch out;
  try {
    out.report = launch(
        opts,
        {.sim = sim,
         .mem = mem,
         .config = {chunk.fits_shared ? "chunk/shared" : "chunk/global", 1,
                    tpb},
         .staged = std::span<const gpusim::Buffer>(&buffer,
                                                   chunk.fits_shared ? 0 : 1),
         .reduce =
             [&] {
               // Deterministic reduction: fold per-warp slots in warp order.
               for (std::uint64_t wid = 0; wid < chunk_warps; ++wid) {
                 out.simulated += warp_simulated[wid];
                 out.triangles += warp_found[wid];
               }
               return sample_factor(work.tests, out.simulated);
             },
         .span_args =
             [&](obs::Scope& span, const gpusim::KernelReport& k) {
               span.arg("tests", work.tests);
               span.arg("transactions", k.transactions);
             }},
        kernel);
  } catch (const gpusim::SmAbortFault& f) {
    // Harvest the completed warps' output slots before rethrowing: the
    // chunk runs as one block, so SM 0's abort boundary partitions the
    // warps into completed (slots exact — warp replay is pure) and
    // never-run.  Only untruncated chunks are salvageable: a sampled
    // chunk's slots cover a subset of the owned tests.
    if (salvage != nullptr && !f.aborts().empty() &&
        opts.max_simulated_tests_per_chunk == 0) {
      const gpusim::SmAbortInfo& info = f.aborts().front();
      LGG_ASSERT(info.sm == 0);
      salvage->warps_total = chunk_warps;
      salvage->warps_completed =
          std::min<std::uint64_t>(info.warps_completed, chunk_warps);
      salvage->warp_done.assign(chunk_warps, 0);
      salvage->simulated = 0;
      salvage->triangles = 0;
      for (std::uint64_t w = 0; w < salvage->warps_completed; ++w) {
        salvage->warp_done[w] = 1;
        salvage->simulated += warp_simulated[w];
        salvage->triangles += warp_found[w];
      }
    }
    throw;
  }
  return out;
}

namespace {

AlsPrecomputed build_plan(const graph::Graph& g,
                          const gpusim::DeviceSpec& dev,
                          graph::SizeMetric metric) {
  AlsPrecomputed plan;
  plan.shared_mem_bits = dev.shared_mem_bits();
  plan.metric = metric;

  graph::ChunkingOptions copts;
  copts.shared_mem_bits = plan.shared_mem_bits;
  copts.metric = metric;
  plan.chunking = graph::split_into_chunks(g, copts);

  plan.works.reserve(plan.chunking.chunks.size());
  plan.chunk_tests.reserve(plan.chunking.chunks.size());
  for (const graph::Chunk& chunk : plan.chunking.chunks) {
    plan.works.push_back(
        build_chunk_work(chunk, plan.chunking.levels[chunk.component]));
    plan.chunk_tests.push_back(plan.works.back().tests);
    plan.total_tests += plan.works.back().tests;
  }
  plan.preprocessing_s = 2.0 * static_cast<double>(g.num_edges()) *
                         cal::kCpuCyclesPerBfsEdge /
                         (cal::kCpuClockGhz * 1e9);
  return plan;
}

}  // namespace

AlsPrecomputed precompute_als(const graph::Graph& g,
                              const HybridOptions& opts) {
  return build_plan(g, device_or_default(opts.device), opts.metric);
}

ChunkedPlan plan_chunked_run(const graph::Graph& g,
                             const gpusim::DeviceSpec& dev,
                             graph::SizeMetric metric,
                             const AlsPrecomputed* prepared,
                             obs::Session* obs, bool components_arg) {
  obs::Scope span(obs, "plan/chunking", "plan");
  ChunkedPlan out;
  out.prepared = prepared;
  if (prepared == nullptr) out.cold = build_plan(g, dev, metric);
  const AlsPrecomputed& plan = out.plan();
  LGG_CHECK(plan.shared_mem_bits == dev.shared_mem_bits() &&
                plan.metric == metric,
            "prepared ALS plan was built for a different device budget or "
            "size metric");
  span.model_s(out.preprocessing_s());
  if (span) {
    span.arg("chunks",
             static_cast<std::uint64_t>(plan.chunking.chunks.size()));
    if (components_arg)
      span.arg("components",
               static_cast<std::uint64_t>(plan.chunking.levels.size()));
    if (prepared != nullptr) span.arg("prepared", true);
  }
  return out;
}

HybridFootprint hybrid_footprint_spec(const graph::Graph& g,
                                      const HybridOptions& opts) {
  const LaunchShape shape =
      launch_shape(opts.device, 1, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;

  // Algorithm 1's planning, exactly as count_triangles_hybrid runs it.
  const AlsPrecomputed plan = precompute_als(g, opts);

  HybridFootprint fp;
  fp.sm_count = dev.sm_count;
  gpusim::DeviceMemory mem(dev);  // scratch: only the addresses matter
  const std::uint64_t shared_bytes = dev.shared_mem_bits() / 8;

  for (std::size_t ci = 0; ci < plan.chunking.chunks.size(); ++ci) {
    const graph::Chunk& chunk = plan.chunking.chunks[ci];
    const ChunkWork& work = plan.works[ci];
    fp.chunk_tests.push_back(work.tests);
    if (work.tests == 0) continue;  // never launched, nothing to prove

    const std::uint64_t local_n = chunk.vertices.size();
    sancheck::FootprintSpec spec;
    spec.name = "hybrid/chunk[" + std::to_string(ci) +
                (chunk.fits_shared ? "]/shared" : "]/global");
    spec.total_tests = work.tests;
    spec.warp_size = dev.warp_size;
    spec.warp_interleaved = true;
    spec.division = sancheck::WorkDivision::kCyclic;
    spec.workers = shape.threads();  // one block == one SM job

    std::size_t job_block = 0;
    if (chunk.fits_shared) {
      // The triangular S-UTM packs into utm_words shared words; the word
      // index is bounded by the last pair's word, so one LinearAccess over
      // the flat word array bounds both the staging loop and every probe.
      const std::uint64_t utm_words =
          (local_n * (local_n - 1) / 2 + 31) / 32;
      spec.blocks.push_back({0, shared_bytes, 4});
      spec.accesses.push_back(
          {std::max<std::uint64_t>(utm_words, 1), 4, 4, 0, "s-utm words"});
      job_block = sancheck::kNoBlock;  // matrix covered by the access above
    } else {
      const std::uint64_t row_bytes = ((local_n + 31) / 32) * 4;
      const gpusim::Buffer buffer = mem.alloc(chunk_device_bytes(chunk));
      spec.blocks.push_back({buffer.base, buffer.bytes, row_bytes});
    }
    for (const AlsJob& job : work.jobs) {
      sancheck::FootprintJob fj;
      fj.test_offset = job.test_offset;
      fj.tests = job.tests;
      fj.s = job.s;
      fj.x_max = job.x_max;
      fj.k = 3;
      // The kernel probes by chunk position (its chunk_pos table), bounded
      // by the chunk's vertex count, a superset of any job's two levels.
      fj.index_bound = local_n;
      fj.block = job_block;
      spec.jobs.push_back(fj);
    }
    fp.chunk_specs.push_back(std::move(spec));
  }
  return fp;
}

HybridResult count_triangles_hybrid(const graph::Graph& g,
                                    const HybridOptions& opts) {
  const LaunchShape shape =
      launch_shape(opts.device, 1, opts.threads_per_block);
  const gpusim::DeviceSpec& dev = shape.dev;
  const std::uint32_t tpb = shape.threads_per_block;

  obs::Scope driver(opts.obs, "gpu/hybrid", "driver");
  if (driver) {
    driver.arg("scheduler", scheduler_name(opts.scheduler));
    driver.arg("threads_per_block", static_cast<std::uint64_t>(tpb));
  }
  // --- Algorithm 1 (or a catalog-resident plan of it) ---
  const ChunkedPlan chunked = plan_chunked_run(
      g, dev, opts.metric, opts.prepared, opts.obs, /*components_arg=*/true);
  const AlsPrecomputed& plan = chunked.plan();
  const graph::ChunkingResult& chunking = plan.chunking;

  HybridResult result;
  const gpusim::Simulator sim(dev, opts.faults);
  gpusim::DeviceMemory mem(dev, opts.faults);

  std::uint64_t device_bytes = 0;
  std::vector<std::uint64_t> job_times_ns;
  double tau_s_sum = 0.0, tau_g_sum = 0.0;

  for (std::size_t ci = 0; ci < chunking.chunks.size(); ++ci) {
    const graph::Chunk& chunk = chunking.chunks[ci];
    const ChunkWork& work = plan.works[ci];

    ChunkExecution exec;
    exec.chunk = static_cast<std::uint32_t>(ci);
    exec.shared_resident = chunk.fits_shared;
    exec.tests = work.tests;
    result.total_tests += work.tests;

    if (work.tests == 0) {
      result.chunks.push_back(exec);
      job_times_ns.push_back(0);
      (chunk.fits_shared ? result.shared_chunks : result.global_chunks)++;
      continue;
    }

    // Data always crosses PCIe once, for shared and global chunks alike.
    device_bytes += chunk_device_bytes(chunk);

    obs::Scope chunk_span(opts.obs, "chunk[" + std::to_string(ci) + "]",
                          "chunk");
    if (chunk_span) {
      chunk_span.arg("shared_resident", chunk.fits_shared);
      chunk_span.arg("tests", work.tests);
    }
    const ChunkLaunch launch = run_chunk_kernel(g, chunk, work, sim, mem, opts);
    chunk_span.close();
    result.hazards.merge(launch.report.hazards);

    if (launch.simulated < work.tests) {
      result.exact = false;
    } else {
      exec.triangles = launch.triangles;
    }
    result.triangles += launch.triangles;

    exec.time_s = launch.report.kernel_time_s;
    (chunk.fits_shared ? tau_s_sum : tau_g_sum) += exec.time_s;
    (chunk.fits_shared ? result.shared_chunks : result.global_chunks)++;
    job_times_ns.push_back(
        static_cast<std::uint64_t>(exec.time_s * 1e9));
    result.chunks.push_back(std::move(exec));
  }

  // --- Section VI: schedule chunk jobs onto the SMs ---
  obs::Scope sched_span(opts.obs,
                        std::string("schedule/") +
                            scheduler_name(opts.scheduler),
                        "schedule");
  result.schedule =
      schedule_chunks(opts.scheduler, job_times_ns, dev.sm_count);
  for (std::size_t ci = 0; ci < result.chunks.size(); ++ci)
    result.chunks[ci].sm = result.schedule.machine_of[ci];
  result.makespan_s = static_cast<double>(result.schedule.makespan) * 1e-9;
  if (sched_span) {
    sched_span.arg("jobs", static_cast<std::uint64_t>(job_times_ns.size()));
    sched_span.arg("machines", static_cast<std::uint64_t>(dev.sm_count));
    sched_span.arg("makespan_s", result.makespan_s);
  }
  sched_span.close();

  // --- Eq. (6) analytic comparison ---
  const double tau_s =
      result.shared_chunks ? tau_s_sum / static_cast<double>(result.shared_chunks)
                           : 0.0;
  const double tau_g =
      result.global_chunks ? tau_g_sum / static_cast<double>(result.global_chunks)
                           : 0.0;
  const double mu = std::ceil(static_cast<double>(result.shared_chunks) /
                              static_cast<double>(dev.sm_count));
  result.eq6_time_s =
      mu * tau_s + static_cast<double>(result.global_chunks) * tau_g;

  // --- end-to-end ---
  const double transfer_s = gpusim::transfer_time_s(dev, device_bytes);
  {
    obs::Scope span(opts.obs, "transfer/h2d", "transfer");
    span.model_s(transfer_s);
    if (span) span.arg("bytes", device_bytes);
  }
  if (opts.obs != nullptr) {
    gpusim::TransferReport tr;
    tr.bytes = device_bytes;
    tr.time_s = transfer_s;
    obs::record_transfer(opts.obs, tr);
  }
  result.total_time_s =
      finish_driver(driver, chunked.preprocessing_s(), transfer_s,
                    result.makespan_s);
  return result;
}

}  // namespace lgg::core
