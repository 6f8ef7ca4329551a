// The parallel ingest pipeline's determinism contract (DESIGN.md §13):
// the LoadedGraph it produces — graph, original_ids, comments,
// declared_nodes — is byte-identical to the serial loader at any thread
// count and any chunk size.  graph::loaded_graph_digest turns that into a
// one-string compare; these suites pin it across thread counts, chunk
// sizes that force lines/comments/headers to straddle chunk boundaries,
// sparse and dense id spaces, and the error paths (which must report the
// serial loader's exact message, global line number included).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ingest/ingest.hpp"
#include "ingest/orient.hpp"
#include "core/triangle_cpu.hpp"
#include "fuzz/spec.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "util/temp_path.hpp"

namespace lgg::ingest {
namespace {

using graph::Graph;
using graph::LoadedGraph;

std::string snap_text(const Graph& g, const std::string& comment = {}) {
  std::ostringstream out;
  graph::write_snap_edge_list(out, g, comment);
  return out.str();
}

LoadedGraph serial_reference(const std::string& text,
                             bool pad = false) {
  std::istringstream in(text);
  graph::SnapReadOptions opts;
  opts.pad_to_declared_nodes = pad;
  return graph::read_snap_edge_list(in, opts);
}

/// Field-by-field equality plus the digest: a digest mismatch alone would
/// prove divergence, but comparing fields first localises the failure.
void expect_identical(const LoadedGraph& got, const LoadedGraph& want) {
  EXPECT_EQ(got.graph.num_vertices(), want.graph.num_vertices());
  EXPECT_EQ(got.graph.num_edges(), want.graph.num_edges());
  EXPECT_EQ(got.original_ids, want.original_ids);
  EXPECT_EQ(got.comments, want.comments);
  EXPECT_EQ(got.declared_nodes, want.declared_nodes);
  EXPECT_EQ(graph::loaded_graph_digest(got), graph::loaded_graph_digest(want));
}

void expect_parallel_matches_serial(const std::string& text,
                                    bool pad = false) {
  const LoadedGraph want = serial_reference(text, pad);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::size_t chunk_bytes : {std::size_t{7}, std::size_t{64},
                                          std::size_t{4u << 20}}) {
      IngestOptions opts;
      opts.threads = threads;
      opts.chunk_bytes = chunk_bytes;
      opts.pad_to_declared_nodes = pad;
      const IngestResult got = load_snap_buffer(text, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk_bytes=" + std::to_string(chunk_bytes));
      expect_identical(got.loaded, want);
    }
  }
}

TEST(IngestDeterminism, MatchesSerialOnGenerators) {
  expect_parallel_matches_serial(snap_text(graph::gnm(400, 2000, 7)));
  expect_parallel_matches_serial(snap_text(graph::rmat(9, 8, 3)));
  expect_parallel_matches_serial(
      snap_text(graph::barabasi_albert(300, 5, 11)));
}

TEST(IngestDeterminism, SparseIdsFirstSeenOrder) {
  // Raw ids far above the edge count force the hashed compaction path;
  // interleaved magnitudes pin the first-seen-order id assignment.
  const std::string text =
      "900000000000 7\n"
      "7 31\n"
      "123456789123456789 900000000000\n"
      "2 123456789123456789\n"
      "31 2\n";
  expect_parallel_matches_serial(text);
  const IngestResult r = load_snap_buffer(text);
  EXPECT_EQ(r.loaded.original_ids,
            (std::vector<std::uint64_t>{900000000000ULL, 7, 31,
                                        123456789123456789ULL, 2}));
}

TEST(IngestDeterminism, CommentsAndHeadersStraddleChunks) {
  // With chunk_bytes as small as 7 every construct here crosses a chunk
  // boundary somewhere; headers must still merge last-one-wins and the
  // comments must come back in file order.
  const std::string text =
      "# Directed graph: example\n"
      "# Nodes: 4 Edges: 3\n"
      "10\t20\n"
      "20 30\n"
      "\n"
      "   # indented comment\n"
      "# Nodes: 6 Edges: 3\n"
      "30\t10\n";
  expect_parallel_matches_serial(text);
  expect_parallel_matches_serial(text, /*pad=*/true);
  const IngestResult r = load_snap_buffer(text);
  ASSERT_TRUE(r.loaded.declared_nodes.has_value());
  EXPECT_EQ(*r.loaded.declared_nodes, 6u);  // last header wins
  EXPECT_EQ(r.loaded.comments.size(), 4u);
}

TEST(IngestDeterminism, DuplicatesAndSelfLoops) {
  const std::string text = "1 2\n2 1\n1 2\n3 3\n2 3\n";
  expect_parallel_matches_serial(text);
  const IngestResult r = load_snap_buffer(text);
  EXPECT_EQ(r.loaded.graph.num_edges(), 2u);
  EXPECT_EQ(r.stats.duplicate_edges, 2u);
  EXPECT_EQ(r.stats.self_loops, 1u);
}

TEST(IngestDeterminism, EmptyAndAllCommentFiles) {
  expect_parallel_matches_serial("");
  expect_parallel_matches_serial("# only\n# comments\n\n");
  const IngestResult r = load_snap_buffer("# only\n# comments\n\n");
  EXPECT_EQ(r.loaded.graph.num_vertices(), 0u);
  EXPECT_EQ(r.loaded.comments.size(), 2u);
  EXPECT_EQ(r.stats.lines, 3u);
}

TEST(IngestErrors, MalformedLineReportsGlobalLineNumber) {
  // The bad line sits deep enough that with tiny chunks it lands in a
  // late chunk; the reported number must still be global, and the whole
  // message must equal the serial loader's.
  std::string text;
  for (int i = 0; i < 100; ++i)
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  text += "not numbers\n";

  std::string serial_message;
  try {
    serial_reference(text);
    FAIL() << "serial loader accepted the malformed line";
  } catch (const lgg::Error& e) {
    serial_message = e.what();
  }
  EXPECT_NE(serial_message.find("malformed line 101"), std::string::npos);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    IngestOptions opts;
    opts.threads = threads;
    opts.chunk_bytes = 16;
    try {
      load_snap_buffer(text, opts);
      FAIL() << "parallel loader accepted the malformed line";
    } catch (const lgg::Error& e) {
      EXPECT_EQ(std::string(e.what()), serial_message);
    }
  }
}

TEST(IngestErrors, FirstMalformedLineWinsAcrossChunks) {
  IngestOptions opts;
  opts.threads = 8;
  opts.chunk_bytes = 4;  // both bad lines parse in different chunks
  try {
    load_snap_buffer("1 2\nbad early\n3 4\nbad late\n", opts);
    FAIL() << "malformed input accepted";
  } catch (const lgg::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: 'bad early'"),
              std::string::npos);
  }
}

TEST(IngestFile, LoadsWhatItWrites) {
  const Graph g = graph::gnm(200, 900, 5);
  const util::TempPath file = util::TempPath::file("lgg-ingest");
  const std::string& path = file.path();
  graph::write_snap_edge_list_file(path, g, "ingest file test");

  const LoadedGraph want = graph::read_snap_edge_list_file(path);
  IngestOptions opts;
  opts.threads = 4;
  const IngestResult got = load_snap_file(path, opts);
  expect_identical(got.loaded, want);
  EXPECT_GT(got.stats.bytes, 0u);
  EXPECT_EQ(got.stats.edge_lines, g.num_edges());
  EXPECT_THROW(load_snap_file("/nonexistent/graph.txt"), lgg::Error);
}

/// load_snap_file on a file holding `text` against load_snap_buffer on the
/// same bytes: the same digest and counters, or the same error text.
void expect_file_matches_buffer(const std::string& text,
                                const IngestOptions& opts) {
  const util::TempPath file = util::TempPath::file("lgg-ingest");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << text;
  }
  std::string buffer_error;
  std::string file_error;
  IngestResult from_buffer;
  IngestResult from_file;
  try {
    from_buffer = load_snap_buffer(text, opts);
  } catch (const lgg::Error& e) {
    buffer_error = e.what();
  }
  try {
    from_file = load_snap_file(file.path(), opts);
  } catch (const lgg::Error& e) {
    file_error = e.what();
  }
  EXPECT_EQ(file_error, buffer_error);
  if (!buffer_error.empty()) return;
  expect_identical(from_file.loaded, from_buffer.loaded);
  const IngestStats& got = from_file.stats;
  const IngestStats& want = from_buffer.stats;
  EXPECT_EQ(got.bytes, text.size());
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.lines, want.lines);
  EXPECT_EQ(got.edge_lines, want.edge_lines);
  EXPECT_EQ(got.comment_lines, want.comment_lines);
  EXPECT_EQ(got.distinct_vertices, want.distinct_vertices);
  EXPECT_EQ(got.duplicate_edges, want.duplicate_edges);
  EXPECT_EQ(got.self_loops, want.self_loops);
  EXPECT_EQ(got.chunks, want.chunks);
  EXPECT_EQ(got.threads, want.threads);
}

TEST(IngestFile, FileEqualsBufferOnTheSameBytes) {
  std::string many_chunks = snap_text(graph::rmat(10, 8, 5), "many chunks");
  many_chunks += "5 5\n7 9\n9 7\n";  // a self-loop and a duplicate
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"empty", ""},
      {"no trailing newline", "# c\n1 2\n2 3"},
      {"crlf", "# Nodes: 4\r\n1 2\r\n2 3\r\n\r\n3 1\r\n"},
      {"many chunks", many_chunks},
      {"malformed", "1 2\n2 3\nnot an edge\n3 4\n"},
  };
  for (const auto& [name, text] : cases) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t chunk_bytes :
           {std::size_t{64}, std::size_t{4u << 20}}) {
        SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                     " chunk_bytes=" + std::to_string(chunk_bytes));
        IngestOptions opts;
        opts.threads = threads;
        opts.chunk_bytes = chunk_bytes;
        expect_file_matches_buffer(text, opts);
      }
    }
  }
  // Many chunks means many: the file crosses hundreds of 64-byte chunks.
  IngestOptions tiny;
  tiny.chunk_bytes = 64;
  EXPECT_GT(load_snap_buffer(many_chunks, tiny).stats.chunks, 100u);

  const std::string missing = "/nonexistent/lgg-graph.txt";
  try {
    load_snap_file(missing);
    FAIL() << "a missing file loaded";
  } catch (const lgg::Error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open graph file: " + missing);
  }
}

TEST(IngestFile, ReadsAStreamOfUnknownSizeToEof) {
  // A FIFO cannot seek, so the reader has no size hint and must grow its
  // buffer until EOF.
  const std::string text = snap_text(graph::gnm(300, 2000, 9), "fifo");
  const util::TempPath dir = util::TempPath::dir("lgg-ingest");
  const std::string fifo = dir.path() + "/graph.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << text;
  });
  IngestResult got;
  std::string error;
  try {
    got = load_snap_file(fifo);
  } catch (const lgg::Error& e) {
    error = e.what();
  }
  writer.join();
  ASSERT_EQ(error, "");
  expect_identical(got.loaded, load_snap_buffer(text).loaded);
  EXPECT_EQ(got.stats.bytes, text.size());
}

TEST(IngestCsr, MatchesFromEdgesIncludingErrors) {
  const std::vector<graph::Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 0},
                                          {3, 3}, {1, 3}};
  const Graph want = Graph::from_edges(5, edges);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    const Graph got = build_csr_parallel(5, edges, &pool);
    EXPECT_EQ(graph::graph_digest(got), graph::graph_digest(want));
  }
  const Graph serial_path = build_csr_parallel(5, edges, nullptr);
  EXPECT_EQ(graph::graph_digest(serial_path), graph::graph_digest(want));

  // Out-of-range endpoints must throw the exact from_edges message.
  const std::vector<graph::Edge> bad = {{0, 1}, {9, 1}, {8, 0}};
  std::string want_message;
  try {
    Graph::from_edges(3, bad);
    FAIL() << "from_edges accepted an out-of-range edge";
  } catch (const lgg::Error& e) {
    want_message = e.what();
  }
  ThreadPool pool(4);
  try {
    build_csr_parallel(3, bad, &pool);
    FAIL() << "build_csr_parallel accepted an out-of-range edge";
  } catch (const lgg::Error& e) {
    EXPECT_EQ(std::string(e.what()), want_message);
  }
}

TEST(Orient, TriangleCountMatchesForward) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Graph g = graph::gnm(300, 2400, seed);
    const std::uint64_t want = core::count_triangles_forward(g);
    const OrientedGraph serial = orient_by_degree(g, nullptr);
    EXPECT_EQ(count_triangles_oriented(serial, nullptr), want);
    ThreadPool pool(4);
    const OrientedGraph parallel = orient_by_degree(g, &pool);
    ASSERT_EQ(parallel.offsets, serial.offsets);
    ASSERT_EQ(parallel.targets, serial.targets);
    EXPECT_EQ(count_triangles_oriented(parallel, &pool), want);
  }
}

TEST(Orient, OutDegreeIsBounded) {
  // Degree-ordered orientation bounds out-degrees by O(sqrt(2m)) even on
  // a star, where the natural orientation has a degree-n hub.
  const Graph star = graph::star(500);
  const OrientedGraph og = orient_by_degree(star, nullptr);
  EXPECT_EQ(og.num_arcs(), star.num_edges());
  // Every leaf has degree 1 < hub degree, so all arcs point at the hub.
  EXPECT_LE(og.max_out_degree, 1u);
  EXPECT_EQ(count_triangles_oriented(og, nullptr), 0u);
}

/// The sorted-merge DODG counter the mark-array counter replaced, kept
/// verbatim (run serially) as the differential oracle: for every arc
/// u -> v, |out(u) ∩ out(v)| by linear merge over the sorted lists.
std::uint64_t merge_count_oracle(const OrientedGraph& og) {
  using graph::Vertex;
  const std::size_t n = og.num_vertices();
  std::uint64_t local = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto out_u = og.out_neighbors(static_cast<Vertex>(u));
    for (const Vertex v : out_u) {
      const auto out_v = og.out_neighbors(v);
      // |out(u) ∩ out(v)| by linear merge over the sorted lists.
      auto a = out_u.begin();
      auto b = out_v.begin();
      while (a != out_u.end() && b != out_v.end()) {
        if (*a < *b)
          ++a;
        else if (*b < *a)
          ++b;
        else {
          ++local;
          ++a;
          ++b;
        }
      }
    }
  }
  return local;
}

/// Several seeded graphs of every fuzz spec family, plus R-MAT graphs
/// large enough to grow real hubs (the sampler caps R-MAT at 2^6).
std::vector<std::pair<std::string, Graph>> differential_graphs() {
  constexpr std::size_t kPerFamily = 3;
  std::vector<std::pair<std::string, Graph>> graphs;
  std::map<std::string, std::size_t> seen;
  Xoshiro256 rng(16);
  fuzz::SamplerLimits limits;
  limits.max_vertices = 160;
  while (seen.size() < fuzz::spec_families().size() ||
         std::any_of(seen.begin(), seen.end(),
                     [](const auto& kv) { return kv.second < kPerFamily; })) {
    const fuzz::GraphSpec spec = fuzz::sample_spec(rng, limits);
    if (seen[spec.family]++ < kPerFamily)
      graphs.emplace_back(spec.to_string(), spec.build());
  }
  for (const std::uint64_t seed : {5, 6})
    graphs.emplace_back("rmat 12x16 seed=" + std::to_string(seed),
                        graph::rmat(12, 16, seed));
  return graphs;
}

/// nullptr (serial) plus pools of 1, 2 and 8 workers.
std::vector<std::unique_ptr<ThreadPool>> differential_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t threads : {1, 2, 8})
    pools.push_back(std::make_unique<ThreadPool>(threads));
  return pools;
}

TEST(Orient, MarkCounterMatchesMergeOracleOnEveryFamily) {
  const auto pools = differential_pools();
  for (const auto& [name, g] : differential_graphs()) {
    SCOPED_TRACE(name);
    const OrientedGraph serial = orient_by_degree(g, nullptr);
    const std::uint64_t want = merge_count_oracle(serial);
    EXPECT_EQ(want, core::count_triangles_forward(g));
    for (const auto& pool : pools) {
      const OrientedGraph og = orient_by_degree(g, pool.get());
      ASSERT_EQ(og.offsets, serial.offsets);
      ASSERT_EQ(og.targets, serial.targets);
      EXPECT_EQ(count_triangles_oriented(og, pool.get()), want)
          << "threads=" << (pool ? pool->size() : 0);
    }
  }
}

TEST(IngestCsr, MatchesFromEdgesOnEveryFamilyWithDuplicatesAndLoops) {
  const auto pools = differential_pools();
  for (const auto& [name, g] : differential_graphs()) {
    SCOPED_TRACE(name);
    const std::size_t n = g.num_vertices();
    std::vector<graph::Edge> plain = g.edges();
    // Every edge again in reversed orientation, every third one a third
    // time, a self-loop on every fifth vertex, then a seeded shuffle so
    // buckets fill out of order.
    std::vector<graph::Edge> noisy = plain;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      noisy.emplace_back(plain[i].second, plain[i].first);
      if (i % 3 == 0) noisy.push_back(plain[i]);
    }
    for (std::size_t v = 0; v < n; v += 5)
      noisy.emplace_back(static_cast<graph::Vertex>(v),
                         static_cast<graph::Vertex>(v));
    Xoshiro256 rng(n);
    for (std::size_t i = noisy.size(); i > 1; --i)
      std::swap(noisy[i - 1], noisy[rng.uniform(i)]);

    for (const auto* edges : {&plain, &noisy}) {
      const std::uint64_t want =
          graph::graph_digest(Graph::from_edges(n, *edges));
      EXPECT_EQ(want, graph::graph_digest(g));
      for (const auto& pool : pools)
        EXPECT_EQ(graph::graph_digest(
                      build_csr_parallel(n, *edges, pool.get())),
                  want)
            << "threads=" << (pool ? pool->size() : 0)
            << (edges == &noisy ? " noisy" : " plain");
    }
  }
}

TEST(IngestDigest, DistinguishesLoadedGraphFields) {
  const std::string base = "# c\n1 2\n2 3\n";
  const auto digest_of = [](const std::string& text) {
    return graph::loaded_graph_digest(load_snap_buffer(text).loaded);
  };
  EXPECT_NE(digest_of(base), digest_of("# d\n1 2\n2 3\n"));  // comment text
  EXPECT_NE(digest_of(base), digest_of("# c\n5 2\n2 3\n"));  // original ids
  EXPECT_NE(digest_of(base), digest_of("# c\n# Nodes: 3\n1 2\n2 3\n"));
  EXPECT_EQ(digest_of(base), digest_of(base));
}

/// The byte-at-a-time FNV-1a fold the digest is defined by: every
/// integer widened to 8 little-endian bytes, each folded on its own.
class ByteFnv1a {
 public:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) byte(static_cast<unsigned char>(v));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t byte_oracle_digest(const graph::LoadedGraph& loaded) {
  ByteFnv1a h;
  h.str("lgg-loaded-v1");
  const Graph& g = loaded.graph;
  h.u64(g.num_vertices());
  for (const std::uint64_t o : g.raw_offsets()) h.u64(o);
  for (const graph::Vertex v : g.raw_adjacency()) h.u64(v);
  h.u64(loaded.original_ids.size());
  for (const std::uint64_t id : loaded.original_ids) h.u64(id);
  h.u64(loaded.comments.size());
  for (const auto& c : loaded.comments) h.str(c);
  h.u64(loaded.declared_nodes.has_value() ? 1 : 0);
  if (loaded.declared_nodes) h.u64(*loaded.declared_nodes);
  return h.value();
}

TEST(IngestDigest, MatchesByteAtATimeOracle) {
  // Ids whose highest non-zero byte sits at every width the fold can
  // shortcut: none (0), the first byte, the second, the fifth, the last.
  const std::vector<std::uint64_t> ids = {
      0, 0xff, 0x100, std::uint64_t{1} << 32, std::uint64_t{1} << 56,
      ~std::uint64_t{0}, 0x1234, 0xabcdef01ULL};
  for (const bool declared : {false, true}) {
    for (const bool comments : {false, true}) {
      graph::LoadedGraph loaded;
      loaded.graph = graph::rmat(7, 8, 3);
      for (std::size_t v = 0; v < loaded.graph.num_vertices(); ++v)
        loaded.original_ids.push_back(ids[v % ids.size()] ^ (v << 8));
      loaded.original_ids[0] = 0;
      if (comments) loaded.comments = {"", "Nodes: 128", std::string(300, 'x')};
      if (declared) loaded.declared_nodes = std::size_t{1} << 40;
      EXPECT_EQ(graph::loaded_graph_digest(loaded), byte_oracle_digest(loaded))
          << "declared=" << declared << " comments=" << comments;
    }
  }
  // A loaded file end to end, and a graph with no vertices.
  const auto loaded =
      load_snap_buffer("# c\n# Nodes: 4\n0 255\n256 4294967296\n"
                       "72057594037927936 18446744073709551615\n")
          .loaded;
  EXPECT_EQ(graph::loaded_graph_digest(loaded), byte_oracle_digest(loaded));
  const graph::LoadedGraph empty{Graph(0), {}, {}, std::nullopt};
  EXPECT_EQ(graph::loaded_graph_digest(empty), byte_oracle_digest(empty));
}

}  // namespace
}  // namespace lgg::ingest
