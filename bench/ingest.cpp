// Ingest throughput: serial reference loader vs the parallel pipeline
// (DESIGN.md §13).
//
// Builds a large synthetic SNAP file (10M edges by default; override with
// $LGG_BENCH_INGEST_EDGES), then loads it with the serial
// graph::read_snap_edge_list_file reference and with ingest::load_snap_file
// at 1/2/4/8 threads.  Each parallel row reports edges/sec, the speedup
// over the serial loader, and digest_match — the determinism contract
// (byte-identical LoadedGraph at any thread count) checked on the real
// artefact, not a toy.
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ingest/ingest.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/temp_path.hpp"

namespace {

/// SNAP writer tuned for bench setup: to_chars into one big buffer, no
/// ostream formatting.  The file is what both loaders read, so the exact
/// writer does not affect the comparison.
void write_snap_fast(const std::string& path, const lgg::graph::Graph& g) {
  std::string buf;
  buf.reserve(g.num_edges() * 16 + 64);
  buf += "# Nodes: " + std::to_string(g.num_vertices()) +
         " Edges: " + std::to_string(g.num_edges()) + "\n";
  char digits[32];
  for (lgg::graph::Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const lgg::graph::Vertex v : g.neighbors(u)) {
      if (v <= u) continue;
      auto [p, ec] = std::to_chars(digits, digits + sizeof digits, u);
      buf.append(digits, p);
      buf += ' ';
      auto [q, ec2] = std::to_chars(digits, digits + sizeof digits, v);
      buf.append(digits, q);
      buf += '\n';
    }
  }
  std::ofstream out(path, std::ios::binary);
  out << buf;
}

}  // namespace

int main() {
  using namespace lgg;
  std::size_t edges = 10'000'000;
  if (const char* env = std::getenv("LGG_BENCH_INGEST_EDGES"))
    edges = std::strtoull(env, nullptr, 10);
  const std::size_t vertices = edges / 5;

  std::cout << "=== Ingest throughput: serial loader vs parallel pipeline ("
            << edges << " edges) ===\n\n";
  const graph::Graph g = graph::gnm(vertices, edges, 42);
  const util::TempPath file = util::TempPath::file("lgg-bench-ingest");
  const std::string& path = file.path();
  write_snap_fast(path, g);

  Stopwatch serial_watch;
  const graph::LoadedGraph serial = graph::read_snap_edge_list_file(path);
  const double serial_ms = serial_watch.elapsed_ms();
  const std::uint64_t want_digest = graph::loaded_graph_digest(serial);
  const double serial_eps =
      static_cast<double>(serial.graph.num_edges()) / (serial_ms / 1000.0);

  TextTable table({"loader", "threads", "wall ms", "edges/sec", "speedup",
                   "digest match"});
  table.new_row()
      .add("serial")
      .add(std::uint64_t{1})
      .add(serial_ms, 1)
      .add(serial_eps, 0)
      .add(1.0, 2)
      .add("yes");
  bench::emit(bench::JsonRecord("ingest_serial")
                  .field("edges", std::uint64_t{g.num_edges()})
                  .field("wall_ms", serial_ms)
                  .field("edges_per_sec", serial_eps)
                  .field("speedup", 1.0)
                  .field("digest_match", true));

  for (const std::size_t threads : {1, 2, 4, 8}) {
    ingest::IngestOptions opts;
    opts.threads = threads;
    Stopwatch watch;
    const ingest::IngestResult r = ingest::load_snap_file(path, opts);
    const double ms = watch.elapsed_ms();
    const bool match = graph::loaded_graph_digest(r.loaded) == want_digest;
    const double eps =
        static_cast<double>(r.loaded.graph.num_edges()) / (ms / 1000.0);
    table.new_row()
        .add("parallel")
        .add(std::uint64_t{threads})
        .add(ms, 1)
        .add(eps, 0)
        .add(serial_ms / ms, 2)
        .add(match ? "yes" : "NO");
    bench::emit(bench::JsonRecord("ingest_parallel")
                    .field("threads", std::uint64_t{threads})
                    .field("edges", std::uint64_t{r.loaded.graph.num_edges()})
                    .field("wall_ms", ms)
                    .field("edges_per_sec", eps)
                    .field("speedup", serial_ms / ms)
                    .field("parse_ms", r.stats.parse_s * 1000.0)
                    .field("compact_ms", r.stats.compact_s * 1000.0)
                    .field("build_ms", r.stats.build_s * 1000.0)
                    .field("digest_match", match));
    if (!match) {
      std::cerr << "DIGEST MISMATCH at threads=" << threads << "\n";
      return 1;
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  return 0;
}
