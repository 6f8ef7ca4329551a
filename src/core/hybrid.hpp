// The Section V/VI execution pipeline: Algorithm 1 splits the graph into
// chunks of consecutive BFS levels; chunks whose adjacency data fits one
// SM's shared memory run as shared-memory-resident jobs (the predecessor
// paper's regime, with bank-conflict costs), the rest run against global
// memory (with coalescing + partition costs); chunk jobs are then
// makespan-scheduled onto the device's streaming multiprocessors
// (Section VI) and the total is compared against the paper's analytic
// Eq. (6): tau_t = mu * tau_s + psi_g * tau_g.
//
// Semantics: every triangle is counted exactly once.  Chunks overlap by
// one BFS level, and each adjacent level set (= each unit of Algorithm 2
// work) is owned by the unique chunk in which its first level is interior
// (plus the trailing set for the component's last chunk), so the chunk
// decomposition partitions the ALS plan.
#pragma once

#include <cstdint>
#include <vector>

#include "core/als_plan.hpp"
#include "graph/bfs.hpp"
#include "graph/chunking.hpp"
#include "core/launch.hpp"
#include "graph/graph.hpp"
#include "gpusim/device.hpp"
#include "sancheck/footprint.hpp"
#include "sched/makespan.hpp"

namespace lgg::core {

enum class SchedulerKind : int { kList = 0, kLpt = 1, kMultifit = 2 };

[[nodiscard]] const char* scheduler_name(SchedulerKind kind) noexcept;

/// Schedule chunk jobs (modelled ns) onto `machines` identical SMs with
/// the Section VI heuristic `kind` names.
[[nodiscard]] sched::Assignment schedule_chunks(
    SchedulerKind kind, const std::vector<std::uint64_t>& jobs,
    std::uint32_t machines);

struct AlsPrecomputed;

/// A fired `faults` hook (RunContext) makes chunk allocations and launches
/// throw gpusim::DeviceFault; this pipeline does NOT recover — use
/// resilience::run_resilient for retry/failover semantics.
struct HybridOptions : RunContext {
  /// Device to simulate; nullptr selects the paper's C1060.
  const gpusim::DeviceSpec* device = nullptr;
  graph::SizeMetric metric = graph::SizeMetric::kSutm;
  std::uint32_t threads_per_block = 128;
  SchedulerKind scheduler = SchedulerKind::kLpt;
  /// Cap on candidate triples simulated per chunk (0 = all); statistics
  /// of truncated chunks are rescaled exactly as in count_triangles_gpu.
  std::uint64_t max_simulated_tests_per_chunk = 0;
  /// Optional precomputed Algorithm 1 plan (non-owning; see
  /// precompute_als).  When set, the pipeline skips chunking / level
  /// decomposition / per-chunk ALS work and charges ZERO modelled
  /// preprocessing — the amortization a resident-graph catalog buys
  /// (DESIGN.md §15).  The plan must have been built for the same graph,
  /// shared-memory budget and metric (budget/metric are checked; the
  /// graph is the caller's contract).
  const AlsPrecomputed* prepared = nullptr;
};

/// Per-chunk execution record.
struct ChunkExecution {
  std::uint32_t chunk = 0;           // index into the ChunkingResult
  bool shared_resident = false;      // fit the SM's shared memory?
  std::uint64_t tests = 0;           // candidate triples owned by the chunk
  std::uint64_t triangles = 0;       // found in this chunk (exact runs)
  double time_s = 0.0;               // modelled single-SM job time
  std::uint32_t sm = 0;              // machine assigned by the scheduler
};

struct HybridResult {
  std::uint64_t triangles = 0;
  bool exact = true;
  std::uint64_t total_tests = 0;

  std::size_t shared_chunks = 0;  // psi_s
  std::size_t global_chunks = 0;  // psi_g

  std::vector<ChunkExecution> chunks;
  sched::Assignment schedule;  // over chunks, machines = SMs

  /// Modelled end-to-end: preprocessing + transfer + scheduled makespan.
  double total_time_s = 0.0;
  /// The scheduled parallel part only (max SM load, seconds).
  double makespan_s = 0.0;
  /// The paper's Eq. (6) estimate with tau_s/tau_g = mean measured chunk
  /// times: mu * tau_s + psi_g * tau_g, where mu = ceil(psi_s / #SM).
  double eq6_time_s = 0.0;

  /// Merged over all chunk launches (kReport mode; empty when off).
  gpusim::HazardReport hazards;
};

/// Run the full hybrid pipeline on the simulated device.
HybridResult count_triangles_hybrid(const graph::Graph& g,
                                    const HybridOptions& opts = {});

// ---- chunk-level building blocks -------------------------------------
// The pieces count_triangles_hybrid is made of, exposed so a recovery
// layer (resilience::run_resilient) can execute chunks as independently
// retryable units: rebuild a chunk's work, launch it on a fresh
// simulator/memory, and recount its test space on the CPU to certify the
// device result.

/// The ALS work owned by one chunk (ownership partitions the component's
/// ALS sequence across its chunks; see the header comment above).
struct ChunkWork {
  std::vector<AlsJob> jobs;  // test_offset is chunk-relative
  std::uint64_t tests = 0;
};

/// Build the chunk's ALS jobs from its component's level decomposition
/// (append_als_jobs over the chunk's levels; lgg::Error when a test count
/// overflows 64 bits).
ChunkWork build_chunk_work(const graph::Chunk& chunk,
                           const graph::LevelDecomposition& levels);

/// Everything Algorithm 1 produces for one graph, computed once and
/// reusable across any number of hybrid / resilient runs: the chunk
/// decomposition, per-component BFS level decompositions, and each
/// chunk's ALS work (the chunk schedule's job weights are
/// works[i].tests).  A pure function of (graph, shared-memory budget,
/// metric), so reusing it is unobservable in results — only the
/// preprocessing cost disappears.  This is the artifact the serving
/// catalog keeps resident per graph (DESIGN.md §15).
struct AlsPrecomputed {
  graph::ChunkingResult chunking;          // chunks + per-component levels
  std::vector<ChunkWork> works;            // per chunk
  std::vector<std::uint64_t> chunk_tests;  // works[i].tests
  std::uint64_t total_tests = 0;
  /// Plan inputs, recorded so consumers can check compatibility.
  std::uint64_t shared_mem_bits = 0;
  graph::SizeMetric metric = graph::SizeMetric::kSutm;
  /// Modelled BFS/levelling cost the plan amortizes (charged by cold
  /// runs, skipped by prepared ones).
  double preprocessing_s = 0.0;
};

/// Run Algorithm 1 once: chunking, level decompositions and per-chunk ALS
/// work for the device/metric named by `opts` (device and metric are the
/// only fields read).
AlsPrecomputed precompute_als(const graph::Graph& g,
                              const HybridOptions& opts = {});

/// The Algorithm 1 plan a chunked run executes (see plan_chunked_run).
struct ChunkedPlan {
  const AlsPrecomputed* prepared = nullptr;
  AlsPrecomputed cold;  // built by the run itself when `prepared` is null

  [[nodiscard]] const AlsPrecomputed& plan() const noexcept {
    return prepared != nullptr ? *prepared : cold;
  }
  /// Modelled preprocessing charged to the run: resident plans amortize
  /// Algorithm 1, so a prepared plan charges zero.
  [[nodiscard]] double preprocessing_s() const noexcept {
    return prepared != nullptr ? 0.0 : cold.preprocessing_s;
  }
};

/// The plan prologue of count_triangles_hybrid and
/// resilience::run_resilient, under one plan/chunking span on `obs`:
/// run Algorithm 1 for (`dev`, `metric`), or check that `prepared` was
/// built for that shared-memory budget and metric (lgg::Error otherwise).
/// The span is charged preprocessing_s() and records `chunks`, then
/// `components` when `components_arg`, then `prepared` for a prepared
/// plan.
ChunkedPlan plan_chunked_run(const graph::Graph& g,
                             const gpusim::DeviceSpec& dev,
                             graph::SizeMetric metric,
                             const AlsPrecomputed* prepared,
                             obs::Session* obs, bool components_arg);

/// Simulated-device footprint of one chunk's packed local adjacency
/// matrix (what a global-resident chunk allocates; what either kind ships
/// across PCIe).
std::uint64_t chunk_device_bytes(const graph::Chunk& chunk);

/// Result of one chunk's kernel launch.
struct ChunkLaunch {
  std::uint64_t simulated = 0;  // tests actually run (== tests when exact)
  std::uint64_t triangles = 0;  // found among the simulated tests
  gpusim::KernelReport report;  // rescaled to the full chunk if truncated
};

/// What an SM abort left behind in one chunk launch: the per-warp output
/// slots of the warps that completed before the abort boundary
/// (gpusim::SmAbortFault::aborts).  Because each warp's replay is a pure
/// function of (graph, chunk work, launch config), a completed warp's
/// slots hold exactly what a fault-free launch writes — so `triangles`
/// over `simulated` tests can be trusted, and only the tests owned by the
/// warps past the boundary need a host recount (DESIGN.md §16).
struct ChunkSalvage {
  std::uint64_t warps_total = 0;      // warps in the chunk's single block
  std::uint64_t warps_completed = 0;  // completed before the abort
  std::uint64_t simulated = 0;        // tests run by completed warps
  std::uint64_t triangles = 0;        // found by completed warps
  /// warp_done[w] != 0 iff warp w completed (size warps_total).
  std::vector<std::uint8_t> warp_done;
};

/// Launch one chunk's 1-block kernel on `sim`, allocating any
/// global-resident matrix from `mem`.  Requires work.tests > 0.  Faults
/// installed on sim/mem surface as gpusim::DeviceFault from here.  When
/// `salvage` is non-null and the launch dies with an SM abort (and the
/// chunk is untruncated), the completed warps' outputs are harvested into
/// it before the fault is rethrown; all other faulted launches leave
/// outputs that must be treated as garbage — retry with a fresh attempt.
ChunkLaunch run_chunk_kernel(const graph::Graph& g, const graph::Chunk& chunk,
                             const ChunkWork& work,
                             const gpusim::Simulator& sim,
                             gpusim::DeviceMemory& mem,
                             const HybridOptions& opts,
                             ChunkSalvage* salvage = nullptr);

/// Exact CPU recount of the chunk's test space (the oracle the resilient
/// runner verifies device results against, and its CPU failover path).
std::uint64_t count_chunk_cpu(const graph::Graph& g, const ChunkWork& work);

// ---- static plan verification (lint/plan_verify.hpp drives this) -----

/// The whole hybrid pipeline's static footprint: one FootprintSpec per
/// non-empty chunk launch (shared chunks prove S-UTM containment against
/// the SM's shared memory, global chunks against their device matrix)
/// plus the inputs the Section VI scheduler sees, so schedule-repair
/// proofs can run without simulating a single test.
struct HybridFootprint {
  /// One spec per chunk OWNING tests, in chunk order
  /// ("hybrid/chunk[i]/shared" or ".../global").
  std::vector<sancheck::FootprintSpec> chunk_specs;
  /// Static schedule weights: tests owned per chunk, ALL chunks (empty
  /// ones included) — index-compatible with HybridResult::chunks.
  std::vector<std::uint64_t> chunk_tests;
  /// Machines the scheduler assigns onto (the device's SM count).
  std::uint32_t sm_count = 0;
};

/// Build the pipeline footprint by replaying the planning half of
/// count_triangles_hybrid (chunking, level decomposition, per-chunk ALS
/// work) without launching anything.
HybridFootprint hybrid_footprint_spec(const graph::Graph& g,
                                      const HybridOptions& opts = {});

}  // namespace lgg::core
