// Umbrella header for the largegraph-gpu library — a reproduction of
// Chatterjee, Radhakrishnan & Antonio, "On Analyzing Large Graphs Using
// GPUs" (IPDPSW 2013).
//
// Subsystems (each usable on its own):
//   graph/   — CSR graphs, bit-packed adjacency (Eq. 1-2), generators,
//              SNAP IO, BFS levels, Algorithm 1 chunking
//   combi/   — binomials, combinadics, the Section VIII strategies
//   sched/   — Section VI makespan scheduling (LPT/MULTIFIT/exact)
//   gpusim/  — the simulated CUDA substrate: devices (Table I),
//              coalescing (Table III), partition camping, bank conflicts,
//              warp executor and timing model
//   ingest/  — ThreadPool-parallel SNAP ingest: chunked parsing, parallel
//              CSR build, degree-ordered orientation (DODG); output
//              byte-identical to the serial loader at any thread count
//   sancheck/— compute-sanitizer-style hazard analysis of simulated
//              launches (tape analyzer + static footprint lint)
//   core/    — Algorithm 2 triangle counting (CPU + simulated GPU with the
//              Figs. 8-9 layouts), k-clique counters, social analyses
//   obs/     — unified observability: modelled-time span tracer, metrics
//              registry, Chrome-trace / span-tree / Prometheus exporters
//   prof/    — deterministic kernel profiler: modelled hardware counters
//              per launch, hotspot attribution, flamegraph / Perfetto /
//              profile-tree exports and the rtol-gated profile differ
//   resilience/ — seed-driven device fault injection + resilient chunked
//              execution with retry, failover and recovery accounting
//   serve/   — resident-graph analytics serving: catalog with cached
//              preprocessing, result cache, request batching and a
//              tenant-fair deterministic drain loop
//   fuzz/    — differential fuzzing engine over every counting path, with
//              a delta-debugging shrinker and the regression corpus format
#pragma once

#include "combi/binomial.hpp"        // IWYU pragma: export
#include "combi/combinadic.hpp"      // IWYU pragma: export
#include "combi/strategies.hpp"      // IWYU pragma: export
#include "core/als_plan.hpp"         // IWYU pragma: export
#include "core/approx.hpp"           // IWYU pragma: export
#include "core/bfs_gpu.hpp"          // IWYU pragma: export
#include "core/hybrid.hpp"           // IWYU pragma: export
#include "core/intersect_gpu.hpp"    // IWYU pragma: export
#include "core/kcount.hpp"           // IWYU pragma: export
#include "core/launch.hpp"           // IWYU pragma: export
#include "core/social.hpp"           // IWYU pragma: export
#include "core/subgraph_gpu.hpp"     // IWYU pragma: export
#include "core/timing_model.hpp"     // IWYU pragma: export
#include "core/truss.hpp"            // IWYU pragma: export
#include "core/triangle_cpu.hpp"     // IWYU pragma: export
#include "core/triangle_gpu.hpp"     // IWYU pragma: export
#include "fuzz/corpus.hpp"           // IWYU pragma: export
#include "fuzz/engine.hpp"           // IWYU pragma: export
#include "fuzz/paths.hpp"            // IWYU pragma: export
#include "fuzz/shrink.hpp"           // IWYU pragma: export
#include "fuzz/spec.hpp"             // IWYU pragma: export
#include "graph/bfs.hpp"             // IWYU pragma: export
#include "graph/bit_matrix.hpp"      // IWYU pragma: export
#include "graph/chunking.hpp"        // IWYU pragma: export
#include "graph/digest.hpp"          // IWYU pragma: export
#include "graph/generators.hpp"      // IWYU pragma: export
#include "graph/graph.hpp"           // IWYU pragma: export
#include "graph/io.hpp"              // IWYU pragma: export
#include "graph/metrics.hpp"         // IWYU pragma: export
#include "gpusim/banks.hpp"          // IWYU pragma: export
#include "gpusim/calibration.hpp"    // IWYU pragma: export
#include "gpusim/coalescing.hpp"     // IWYU pragma: export
#include "gpusim/device.hpp"         // IWYU pragma: export
#include "gpusim/executor.hpp"       // IWYU pragma: export
#include "gpusim/fault.hpp"          // IWYU pragma: export
#include "gpusim/memory.hpp"         // IWYU pragma: export
#include "gpusim/occupancy.hpp"      // IWYU pragma: export
#include "gpusim/partition.hpp"      // IWYU pragma: export
#include "gpusim/report.hpp"         // IWYU pragma: export
#include "ingest/ingest.hpp"         // IWYU pragma: export
#include "ingest/orient.hpp"         // IWYU pragma: export
#include "obs/metrics.hpp"           // IWYU pragma: export
#include "obs/obs.hpp"               // IWYU pragma: export
#include "obs/trace.hpp"             // IWYU pragma: export
#include "prof/diff.hpp"             // IWYU pragma: export
#include "prof/profile.hpp"          // IWYU pragma: export
#include "prof/profiler.hpp"         // IWYU pragma: export
#include "resilience/checkpoint.hpp"  // IWYU pragma: export
#include "resilience/fault.hpp"      // IWYU pragma: export
#include "resilience/runner.hpp"     // IWYU pragma: export
#include "sancheck/footprint.hpp"    // IWYU pragma: export
#include "sancheck/sancheck.hpp"     // IWYU pragma: export
#include "sched/makespan.hpp"        // IWYU pragma: export
#include "serve/cache.hpp"           // IWYU pragma: export
#include "serve/catalog.hpp"         // IWYU pragma: export
#include "serve/request.hpp"         // IWYU pragma: export
#include "serve/service.hpp"         // IWYU pragma: export
#include "stream/edge_stream.hpp"    // IWYU pragma: export
#include "stream/streaming_triangles.hpp"  // IWYU pragma: export
#include "util/bits.hpp"             // IWYU pragma: export
#include "util/error.hpp"            // IWYU pragma: export
#include "util/prng.hpp"             // IWYU pragma: export
#include "util/stopwatch.hpp"        // IWYU pragma: export
#include "util/table.hpp"            // IWYU pragma: export
#include "util/temp_path.hpp"        // IWYU pragma: export
