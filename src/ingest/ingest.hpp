// High-throughput parallel SNAP ingest (DESIGN.md §13).
//
// Every pipeline in the repo enters through the SNAP loader, and on large
// graphs the serial istringstream parser plus the serial sort+two-pass CSR
// build dominate wall-clock long before any simulated kernel runs.  This
// module rebuilds ingest as a ThreadPool-parallel pipeline:
//
//   read     file read straight into one text buffer (sized by the
//            file length, grown until EOF for streams), freed once parsed
//   parse    the buffer split into byte chunks at line boundaries; each
//            chunk parsed independently with hand-rolled integer scanning
//            (no istringstream on the hot path), then merged in chunk
//            order — so comments, header fields, first-seen-order ids and
//            even the *exact* malformed-line error (global line number and
//            text) match the serial loader
//   compact  sparse ids -> dense first-seen-order ids, read in place from
//            the per-chunk edge arrays (no merged copy) via bucketed
//            first-occurrence maps, a position sort and a binary-search
//            translation table
//   build    parallel CSR (build_csr_parallel): per-executor histograms of
//            each edge's min endpoint, a two-level prefix that gives every
//            executor its own cursor into every bucket, an atomic-free
//            scatter, per-bucket sort + dedup that also counts each
//            vertex's low side, prefix offsets, then an adjacency fill
//            that is sorted by construction (low side by
//            destination-range transpose, then the vertex's own bucket;
//            no final sort)
//
// Determinism contract (the same one PRs 1-5 established for the
// simulator): the LoadedGraph — graph, original_ids, comments,
// declared_nodes — is byte-identical to graph::read_snap_edge_list at any
// thread count and any chunk size.  Every merge is either order-preserving
// (chunk order = file order), partition-invariant (min-combines,
// full sorts with duplicate-free or fully-equal keys) or associative
// (u64 sums), so the chunk decomposition is unobservable.
// graph::loaded_graph_digest turns the contract into a one-string compare;
// tests/ingest_test.cpp and the ci/check.sh ingest stage pin it.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace lgg::ingest {

struct IngestOptions {
  /// Worker-thread budget: 0 = the process-wide shared pool, 1 = fully
  /// serial (no pool), N > 1 = a dedicated pool of N workers for this
  /// load.  The result is byte-identical across all settings.
  std::size_t threads = 0;
  /// Same semantics as graph::SnapReadOptions::pad_to_declared_nodes.
  bool pad_to_declared_nodes = false;
  /// Target parse-chunk size in bytes.  The pipeline may shrink it so
  /// small files still fan out across the pool, but never grows it past
  /// this value (tests use tiny chunks to force lines, comments and
  /// headers to straddle chunk boundaries).
  std::size_t chunk_bytes = 4u << 20;
  /// Optional observability session: an ingest/load span tree plus
  /// lgg_ingest_* counters.  Only partition-invariant quantities are
  /// recorded, so exported artifacts stay byte-identical across thread
  /// counts.
  obs::Session* obs = nullptr;
};

/// Wall-clock phase breakdown and content counters for one load.  The
/// counters (bytes..self_loops) are deterministic; `chunks` and `threads`
/// describe the decomposition actually used and the *_s fields are host
/// wall time — neither is part of the determinism contract.
struct IngestStats {
  std::size_t bytes = 0;
  std::size_t lines = 0;
  std::size_t edge_lines = 0;
  std::size_t comment_lines = 0;
  std::size_t distinct_vertices = 0;
  std::size_t duplicate_edges = 0;  // dropped by dedup (either orientation)
  std::size_t self_loops = 0;       // dropped self-loops
  std::size_t chunks = 0;
  std::size_t threads = 1;
  double read_s = 0.0;
  double parse_s = 0.0;
  double compact_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

struct IngestResult {
  graph::LoadedGraph loaded;
  IngestStats stats;
};

/// Parse a SNAP edge list held in memory.  Throws lgg::Error on malformed
/// lines with the serial loader's exact message (global line number and
/// line text).
IngestResult load_snap_buffer(std::string_view text,
                              const IngestOptions& opts = {});

/// Read and parse a SNAP edge-list file.  Throws lgg::Error if the file
/// cannot be opened or is a directory (graph::open_graph_file, shared with
/// the serial loader) or is malformed.
IngestResult load_snap_file(const std::string& path,
                            const IngestOptions& opts = {});

/// Parallel replacement for Graph::from_edges with identical semantics and
/// an identical result (same CSR arrays, same out-of-range error message):
/// normalisation, dedup, offsets and adjacency fill all run on `pool`
/// (nullptr = serial).  The SNAP loaders' one CSR build; when `stats` is
/// given, the dropped self-loops and duplicate edges are added to it.
/// Takes fewer than 2^32 edges (its bucket counters are 32-bit).
graph::Graph build_csr_parallel(std::size_t n,
                                std::span<const graph::Edge> edges,
                                ThreadPool* pool = nullptr,
                                IngestStats* stats = nullptr);

}  // namespace lgg::ingest
