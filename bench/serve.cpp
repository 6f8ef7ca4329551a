// Serving economics (DESIGN.md §15): what residency and batching buy.
//
// Row 1 — cold vs resident latency, three paths.  A cold triangle query
// pays the full pipeline every time: admission preprocessing (ALS plan +
// DODG orientation) plus the count.  A resident-uncached query reuses the
// catalog's artifacts but runs its backend every time (result cache off;
// at the default size that backend is the host DODG counter).  A cached
// query repeats one already answered and touches no backend at all.  The
// acceptance bar is a >= 5x latency drop from cold to cached for a
// repeated triangle query on a resident graph ($LGG_BENCH_SERVE_EDGES
// edges, 1M by default).
//
// Row 2 — batched vs unbatched throughput.  The same request set (many
// cc queries + repeated triangle queries, cache off so merging is what's
// measured) served with batching on (one pass per (graph, pass key))
// versus off (one pass per request).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "graph/generators.hpp"
#include "serve/catalog.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

lgg::serve::Request triangle_req(std::uint64_t id) {
  lgg::serve::Request r;
  r.id = id;
  r.tenant = "bench";
  r.graph = "g";
  r.kind = lgg::serve::QueryKind::kTriangles;
  return r;
}

}  // namespace

int main() {
  using namespace lgg;
  std::size_t edges = 1'000'000;
  if (const char* env = std::getenv("LGG_BENCH_SERVE_EDGES"))
    edges = std::strtoull(env, nullptr, 10);
  const std::size_t vertices = edges / 5;

  std::cout << "=== Serving: residency + batching economics (" << edges
            << " edges) ===\n\n";
  const graph::Graph g = graph::gnm(vertices, edges, 42);

  // -- cold latency: admission preprocessing + query, every time --------
  const int kColdRuns = 3;
  double cold_ms = 0.0;
  std::string backend;
  for (int run = 0; run < kColdRuns; ++run) {
    Stopwatch watch;
    serve::Catalog catalog;
    catalog.add("g", g);
    serve::Service service(catalog);
    service.submit(triangle_req(0));
    const std::vector<serve::Response> resp = service.drain();
    cold_ms += watch.elapsed_ms() / kColdRuns;
    const std::string& body = resp.front().body;
    backend = body.substr(body.rfind('=') + 1);
  }

  // -- resident latency: admitted once, the query repeated -------------
  // Uncached: every repeat runs the backend.  Cached: one untimed query
  // warms the result cache, so every timed repeat is a hit.
  const int kResidentRuns = 20;
  const auto resident_latency_ms = [&](std::size_t cache_capacity) {
    serve::Catalog catalog;
    catalog.add("g", g);
    serve::ServeOptions sopts;
    sopts.cache_capacity = cache_capacity;
    serve::Service service(catalog, sopts);
    service.submit(triangle_req(0));
    service.drain();
    double ms = 0.0;
    for (int run = 1; run <= kResidentRuns; ++run) {
      Stopwatch watch;
      service.submit(triangle_req(static_cast<std::uint64_t>(run)));
      service.drain();
      ms += watch.elapsed_ms() / kResidentRuns;
    }
    return ms;
  };
  const double uncached_ms = resident_latency_ms(0);
  const double cached_ms =
      resident_latency_ms(serve::ServeOptions{}.cache_capacity);
  const double uncached_speedup = cold_ms / uncached_ms;
  const double latency_speedup = cold_ms / cached_ms;

  TextTable latency({"path", "wall ms/query", "speedup", "backend"});
  latency.new_row().add("cold").add(cold_ms, 3).add(1.0, 1).add(backend);
  latency.new_row()
      .add("resident-uncached")
      .add(uncached_ms, 3)
      .add(uncached_speedup, 1)
      .add(backend);
  latency.new_row()
      .add("cached")
      .add(cached_ms, 3)
      .add(latency_speedup, 1)
      .add("cache");
  latency.print(std::cout);
  bench::emit(bench::JsonRecord("serve_cold_vs_resident")
                  .field("edges", std::uint64_t{g.num_edges()})
                  .field("cold_ms", cold_ms)
                  .field("resident_uncached_ms", uncached_ms)
                  .field("resident_ms", cached_ms)
                  .field("uncached_speedup", uncached_speedup)
                  .field("speedup", latency_speedup)
                  .field("backend", backend)
                  .field("meets_5x_basis", "cold_ms / resident_ms (cached)")
                  .field("meets_5x", latency_speedup >= 5.0));

  // -- batched vs unbatched throughput (cache off) ----------------------
  const std::size_t kCcQueries = 64;
  const std::size_t kTriQueries = 8;
  const auto request_set = [&] {
    std::vector<serve::Request> reqs;
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < kCcQueries; ++i) {
      serve::Request r;
      r.id = id++;
      r.tenant = "bench";
      r.graph = "g";
      r.kind = serve::QueryKind::kCc;
      r.vertex = static_cast<graph::Vertex>(i);
      reqs.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < kTriQueries; ++i)
      reqs.push_back(triangle_req(id++));
    return reqs;
  };

  TextTable throughput({"mode", "requests", "wall ms", "req/sec"});
  double batched_ms = 0.0, unbatched_ms = 0.0;
  for (const bool batching : {true, false}) {
    serve::Catalog cat;
    cat.add("g", g);
    serve::ServeOptions sopts;
    sopts.batching = batching;
    sopts.cache_capacity = 0;
    serve::Service svc(cat, sopts);
    // cc memoization would hide the per-pass cost; clear it per mode by
    // using a fresh catalog (done above) and measuring the drain only.
    std::vector<serve::Request> reqs = request_set();
    const std::size_t n = reqs.size();
    for (auto& r : reqs) svc.submit(std::move(r));
    Stopwatch watch;
    svc.drain();
    const double ms = watch.elapsed_ms();
    (batching ? batched_ms : unbatched_ms) = ms;
    throughput.new_row()
        .add(batching ? "batched" : "unbatched")
        .add(std::uint64_t{n})
        .add(ms, 2)
        .add(static_cast<double>(n) / (ms / 1000.0), 0);
  }
  std::cout << "\n";
  throughput.print(std::cout);
  bench::emit(bench::JsonRecord("serve_batching")
                  .field("requests", std::uint64_t{kCcQueries + kTriQueries})
                  .field("batched_ms", batched_ms)
                  .field("unbatched_ms", unbatched_ms)
                  .field("speedup", unbatched_ms / batched_ms));

  if (latency_speedup < 5.0) {
    std::cerr << "cold-to-cached latency speedup " << latency_speedup
              << "x is below the 5x acceptance bar\n";
    return 1;
  }
  return 0;
}
