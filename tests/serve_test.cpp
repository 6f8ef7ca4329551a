// Serving-layer contract (DESIGN.md §15): concurrent submission is
// byte-identical to serial, the result cache is exact-match-only and
// eviction-transparent, batching merges same-graph passes without
// changing per-query results, admission and fairness are deterministic,
// and cache hits bypass the device entirely.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checkpoint_craft.hpp"
#include "core/hybrid.hpp"
#include "core/triangle_cpu.hpp"
#include "graph/bfs.hpp"
#include "graph/digest.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ingest/ingest.hpp"
#include "ingest/orient.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/runner.hpp"
#include "serve/cache.hpp"
#include "serve/catalog.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/prng.hpp"
#include "util/temp_path.hpp"

namespace lgg {
namespace {

/// The mixed 200-request script over three resident graphs the stress
/// and determinism tests share.  Pure function of nothing — every call
/// builds the same requests with ids 0..n-1.
std::vector<serve::Request> mixed_script() {
  const std::vector<std::string> graphs = {"g0", "g1", "g2"};
  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  std::vector<serve::Request> reqs;
  SplitMix64 rng(20130520);
  for (std::uint64_t id = 0; id < 200; ++id) {
    serve::Request r;
    r.id = id;
    r.tenant = tenants[rng.next() % tenants.size()];
    r.graph = graphs[rng.next() % graphs.size()];
    switch (rng.next() % 6) {
      case 0:
        r.kind = serve::QueryKind::kTriangles;
        break;
      case 1:
        r.kind = serve::QueryKind::kKClique;
        r.k = 3 + static_cast<std::uint32_t>(rng.next() % 2);
        break;
      case 2:
        r.kind = serve::QueryKind::kDoulion;
        r.p = 0.5;
        r.seed = rng.next() % 4;
        break;
      case 3:
        r.kind = serve::QueryKind::kWedges;
        r.samples = 100 + rng.next() % 100;
        r.seed = rng.next() % 4;
        break;
      case 4:
        r.kind = serve::QueryKind::kBfs;
        r.vertex = static_cast<graph::Vertex>(rng.next() % 40);
        break;
      default:
        r.kind = serve::QueryKind::kCc;
        r.vertex = static_cast<graph::Vertex>(rng.next() % 40);
        break;
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

serve::Catalog make_catalog(obs::Session* obs = nullptr) {
  serve::CatalogOptions copts;
  copts.obs = obs;
  serve::Catalog catalog(copts);
  catalog.add("g0", graph::gnm(40, 120, 7));
  catalog.add("g1", graph::gnm(36, 90, 9));
  catalog.add("g2", graph::gnm(44, 140, 11));
  return catalog;
}

std::string render(const std::vector<serve::Response>& responses) {
  std::string out;
  for (const auto& r : responses) out += r.line() + "\n";
  return out;
}

/// Serial reference: submit the whole script from this thread, drain.
std::pair<std::string, std::string> serial_run(
    const serve::ServeOptions& sopts) {
  serve::Catalog catalog = make_catalog();
  serve::Service service(catalog, sopts);
  for (auto& r : mixed_script()) service.submit(std::move(r));
  const std::string responses = render(service.drain());
  return {responses, service.log()};
}

TEST(ServeStress, ConcurrentSubmissionMatchesSerial) {
  serve::ServeOptions sopts;  // batching + cache on (the defaults)
  const auto [want_responses, want_log] = serial_run(sopts);
  EXPECT_FALSE(want_responses.empty());

  for (const std::size_t n_clients : {2, 4, 8}) {
    serve::Catalog catalog = make_catalog();
    serve::Service service(catalog, sopts);
    const std::vector<serve::Request> script = mixed_script();
    std::vector<std::thread> clients;
    clients.reserve(n_clients);
    for (std::size_t c = 0; c < n_clients; ++c) {
      clients.emplace_back([&service, &script, c, n_clients] {
        // Client c submits the c-th stripe, so submissions interleave.
        for (std::size_t i = c; i < script.size(); i += n_clients)
          service.submit(script[i]);
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(render(service.drain()), want_responses)
        << n_clients << " clients";
    EXPECT_EQ(service.log(), want_log) << n_clients << " clients";
  }
}

TEST(ServeStress, RepeatedDrainsHitTheCache) {
  serve::ServeOptions sopts;
  serve::Catalog catalog = make_catalog();
  serve::Service service(catalog, sopts);
  for (auto& r : mixed_script()) service.submit(std::move(r));
  const std::string first = render(service.drain());

  // Same script again (fresh ids): responses identical, all hits.
  for (auto& r : mixed_script()) {
    r.id += 1000;
    service.submit(std::move(r));
  }
  std::string second = render(service.drain());
  // Only the ids differ; normalise them away line by line.
  auto strip_id = [](const std::string& text) {
    std::string out;
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t eol = text.find('\n', pos);
      const std::string line = text.substr(pos, eol - pos);
      out += line.substr(line.find(' ') + 1) + "\n";
      pos = eol + 1;
    }
    return out;
  };
  EXPECT_EQ(strip_id(second), strip_id(first));
}

TEST(ServeCache, HitsRequireExactTripleMatch) {
  serve::ResultCache cache(16);
  const serve::CacheKey key{0x1234, "doulion p=0.5 seed=7", 7};
  cache.insert(key, "estimate=42");
  EXPECT_EQ(cache.lookup(key), "estimate=42");
  // Any component off by one misses.
  EXPECT_FALSE(cache.lookup({0x1235, key.canonical, key.seed}).has_value());
  EXPECT_FALSE(cache.lookup({key.digest, "doulion p=0.5 seed=8", 8})
                   .has_value());
  EXPECT_FALSE(cache.lookup({key.digest, key.canonical, 8}).has_value());
}

TEST(ServeCache, SeedsNeverAlias) {
  // Two estimate queries differing only in seed must never share a
  // cache entry — and their canonical forms must differ.
  serve::Request a;
  a.kind = serve::QueryKind::kWedges;
  a.samples = 100;
  a.seed = 1;
  serve::Request b = a;
  b.seed = 2;
  EXPECT_NE(serve::canonical_query(a), serve::canonical_query(b));

  serve::ResultCache cache(16);
  cache.insert({9, serve::canonical_query(a), a.seed}, "estimate=1");
  cache.insert({9, serve::canonical_query(b), b.seed}, "estimate=2");
  EXPECT_EQ(cache.lookup({9, serve::canonical_query(a), a.seed}),
            "estimate=1");
  EXPECT_EQ(cache.lookup({9, serve::canonical_query(b), b.seed}),
            "estimate=2");
}

TEST(ServeCache, RandomizedEvictionNeverChangesResponses) {
  // Reference: caching disabled entirely.
  serve::ServeOptions uncached;
  uncached.cache_capacity = 0;
  const auto [want, _] = serial_run(uncached);

  // Any capacity from 1..16 (plenty of forced evictions at 200 requests)
  // must produce byte-identical responses.
  for (std::size_t cap = 1; cap <= 16; ++cap) {
    serve::ServeOptions sopts;
    sopts.cache_capacity = cap;
    serve::Catalog catalog = make_catalog();
    serve::Service service(catalog, sopts);
    for (auto& r : mixed_script()) service.submit(std::move(r));
    EXPECT_EQ(render(service.drain()), want) << "capacity " << cap;
  }
}

TEST(ServeCache, EvictionEvictsLeastRecentlyUsed) {
  serve::ResultCache cache(2);
  cache.insert({1, "a", 0}, "A");
  cache.insert({2, "b", 0}, "B");
  EXPECT_TRUE(cache.lookup({1, "a", 0}).has_value());  // touch A
  cache.insert({3, "c", 0}, "C");                      // evicts B
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup({1, "a", 0}).has_value());
  EXPECT_FALSE(cache.lookup({2, "b", 0}).has_value());
  EXPECT_TRUE(cache.lookup({3, "c", 0}).has_value());
}

TEST(ServeBatching, MergesSameGraphPassesWithoutChangingResults) {
  obs::Session obs;
  serve::CatalogOptions copts;
  copts.obs = &obs;
  serve::Catalog catalog(copts);
  const graph::Graph g = graph::gnm(40, 120, 7);
  catalog.add("g", g);

  serve::ServeOptions sopts;
  sopts.obs = &obs;
  serve::Service service(catalog, sopts);
  // Three triangle queries and four cc queries: 2 passes, 5 merges.
  for (std::uint64_t id = 0; id < 3; ++id) {
    serve::Request r;
    r.id = id;
    r.tenant = "t" + std::to_string(id);
    r.graph = "g";
    r.kind = serve::QueryKind::kTriangles;
    service.submit(std::move(r));
  }
  for (std::uint64_t id = 3; id < 7; ++id) {
    serve::Request r;
    r.id = id;
    r.tenant = "t" + std::to_string(id % 2);
    r.graph = "g";
    r.kind = serve::QueryKind::kCc;
    r.vertex = static_cast<graph::Vertex>(id);
    service.submit(std::move(r));
  }
  const auto responses = service.drain();

  EXPECT_EQ(obs.metrics.counter_value("lgg_serve_passes_total"), 2u);
  EXPECT_EQ(obs.metrics.counter_value("lgg_serve_batch_merges_total"), 5u);

  // Merged-pass results equal the per-query ground truth.
  const std::uint64_t want_tri = core::count_triangles_forward(g);
  const std::vector<double> want_cc = core::clustering_coefficients(g);
  for (const auto& resp : responses) {
    ASSERT_EQ(resp.status, serve::Status::kOk) << resp.line();
    if (resp.canonical == "triangles") {
      EXPECT_EQ(resp.body, "triangles=" + std::to_string(want_tri) +
                               " backend=resilient");
    }
  }
  EXPECT_NE(responses[3].body.find("cc="), std::string::npos);
  for (std::uint64_t id = 3; id < 7; ++id)
    EXPECT_EQ(responses[id].body,
              "cc=" + obs::format_number(want_cc[id]) + " backend=host");

  // Unbatched run: same responses, one pass per request.
  serve::Catalog cat2;
  cat2.add("g", graph::gnm(40, 120, 7));
  serve::ServeOptions unbatched;
  unbatched.batching = false;
  serve::Service service2(cat2, unbatched);
  for (std::uint64_t id = 0; id < 3; ++id) {
    serve::Request r;
    r.id = id;
    r.tenant = "t" + std::to_string(id);
    r.graph = "g";
    r.kind = serve::QueryKind::kTriangles;
    service2.submit(std::move(r));
  }
  for (std::uint64_t id = 3; id < 7; ++id) {
    serve::Request r;
    r.id = id;
    r.tenant = "t" + std::to_string(id % 2);
    r.graph = "g";
    r.kind = serve::QueryKind::kCc;
    r.vertex = static_cast<graph::Vertex>(id);
    service2.submit(std::move(r));
  }
  const auto responses2 = service2.drain();
  ASSERT_EQ(responses2.size(), responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i)
    EXPECT_EQ(responses2[i].line(), responses[i].line());
}

TEST(ServeAdmission, QuotaRejectsDeterministicallyInIdOrder) {
  serve::Catalog catalog = make_catalog();
  serve::ServeOptions sopts;
  sopts.tenant_quota = 2;
  serve::Service service(catalog, sopts);
  // alice submits 4, bob 1: alice's ids 0,1 admitted, 2,3 rejected.
  for (std::uint64_t id = 0; id < 4; ++id) {
    serve::Request r;
    r.id = id;
    r.tenant = "alice";
    r.graph = "g0";
    r.kind = serve::QueryKind::kBfs;
    r.vertex = static_cast<graph::Vertex>(id);
    service.submit(std::move(r));
  }
  serve::Request rb;
  rb.id = 4;
  rb.tenant = "bob";
  rb.graph = "g0";
  rb.kind = serve::QueryKind::kTriangles;
  service.submit(std::move(rb));

  const auto responses = service.drain();
  EXPECT_EQ(responses[0].status, serve::Status::kOk);
  EXPECT_EQ(responses[1].status, serve::Status::kOk);
  EXPECT_EQ(responses[2].status, serve::Status::kRejected);
  EXPECT_EQ(responses[3].status, serve::Status::kRejected);
  EXPECT_EQ(responses[4].status, serve::Status::kOk);
}

TEST(ServeErrors, UnknownGraphAndBadVertexAreDeterministicErrors) {
  serve::Catalog catalog = make_catalog();
  serve::Service service(catalog, {});
  serve::Request a;
  a.id = 0;
  a.tenant = "t";
  a.graph = "nope";
  a.kind = serve::QueryKind::kTriangles;
  service.submit(std::move(a));
  serve::Request b;
  b.id = 1;
  b.tenant = "t";
  b.graph = "g0";
  b.kind = serve::QueryKind::kCc;
  b.vertex = 1000;  // out of range
  service.submit(std::move(b));
  const auto responses = service.drain();
  EXPECT_EQ(responses[0].status, serve::Status::kError);
  EXPECT_EQ(responses[0].body, "reason=\"unknown graph\"");
  EXPECT_EQ(responses[1].status, serve::Status::kError);
  EXPECT_EQ(responses[1].body, "reason=\"vertex out of range\"");
}

TEST(ServeDevice, CacheHitsBypassTheDeviceEntirely) {
  obs::Session obs;
  serve::CatalogOptions copts;
  copts.obs = &obs;
  serve::Catalog catalog(copts);
  catalog.add("g", graph::gnm(40, 120, 7));
  serve::ServeOptions sopts;
  sopts.obs = &obs;
  serve::Service service(catalog, sopts);

  serve::Request r;
  r.id = 0;
  r.tenant = "t";
  r.graph = "g";
  r.kind = serve::QueryKind::kTriangles;
  service.submit(r);
  const auto first = service.drain();
  const std::uint64_t launches =
      obs.metrics.counter_value("lgg_gpusim_launches_total");
  EXPECT_GT(launches, 0u);  // the miss ran the device pipeline

  r.id = 1;
  service.submit(r);
  const auto second = service.drain();
  // Zero new kernel launches on the hit, identical body.
  EXPECT_EQ(obs.metrics.counter_value("lgg_gpusim_launches_total"),
            launches);
  EXPECT_EQ(obs.metrics.counter_value("lgg_serve_cache_hits_total"), 1u);
  EXPECT_EQ(second[0].body, first[0].body);
}

TEST(ServeBfsMemo, MemoizedSummaryMatchesFreshBfs) {
  // A sparse graph with several components, so `reached` varies by source.
  const graph::Graph g = graph::gnm(60, 50, 3);
  serve::Catalog catalog;
  catalog.add("g", g);
  serve::ServeOptions sopts;
  sopts.cache_capacity = 0;  // repeat queries must be answered by the memo
  serve::Service service(catalog, sopts);

  std::uint64_t id = 0;
  const auto ask = [&](graph::Vertex source) {
    serve::Request r;
    r.id = id++;
    r.tenant = "t";
    r.graph = "g";
    r.kind = serve::QueryKind::kBfs;
    r.vertex = source;
    service.submit(std::move(r));
    return service.drain().at(0).body;
  };
  for (graph::Vertex v = 0; v < g.num_vertices(); v += 7) {
    const graph::BfsTree tree = graph::bfs(g, v);
    std::uint64_t reached = 0;
    for (const std::uint32_t lvl : tree.level)
      if (lvl != graph::kUnreached) ++reached;
    const std::string want = "depth=" + std::to_string(tree.depth) +
                             " reached=" + std::to_string(reached) +
                             " backend=host";
    EXPECT_EQ(ask(v), want) << "first query from " << v;
    const serve::BfsSummary& memo = catalog.find("g")->bfs_memo.at(v);
    EXPECT_EQ(memo, (serve::BfsSummary{tree.depth, reached}));
    EXPECT_EQ(memo, serve::summarize_bfs(tree));
    EXPECT_EQ(ask(v), want) << "memoized query from " << v;
  }
}

TEST(ServePlan, PreparedPlanMatchesColdRunsAndChargesNoPreprocessing) {
  const graph::Graph g = graph::gnm(48, 160, 5);
  const core::AlsPrecomputed plan = core::precompute_als(g);

  core::HybridOptions cold;
  const core::HybridResult cold_run = core::count_triangles_hybrid(g, cold);
  core::HybridOptions warm;
  warm.prepared = &plan;
  const core::HybridResult warm_run = core::count_triangles_hybrid(g, warm);
  EXPECT_EQ(warm_run.triangles, cold_run.triangles);
  EXPECT_EQ(warm_run.total_tests, cold_run.total_tests);
  EXPECT_LT(warm_run.total_time_s, cold_run.total_time_s);
  EXPECT_GT(plan.preprocessing_s, 0.0);

  resilience::RunnerOptions rcold;
  const resilience::RunnerReport rep_cold = resilience::run_resilient(g, rcold);
  resilience::RunnerOptions rwarm;
  rwarm.prepared = &plan;
  const resilience::RunnerReport rep_warm = resilience::run_resilient(g, rwarm);
  EXPECT_EQ(rep_warm.triangles, rep_cold.triangles);
  EXPECT_TRUE(rep_warm.certified);
  EXPECT_EQ(rep_warm.log, rep_cold.log);
  EXPECT_LT(rep_warm.total_time_s, rep_cold.total_time_s);
}

TEST(ServeCatalog, AdmissionMatchesSequentialCallsAtAnyThreadCount) {
  // Catalog::admit computes the digest and the plan as two concurrent
  // tasks unless threads == 1; every artifact must equal the one-by-one
  // serial calls.  A layered graph gives several chunks, and a second
  // component a second level decomposition.
  graph::Graph g = graph::layered_random(1200, 20, 0.5, 0.2, 9);
  std::vector<graph::Edge> edges = g.edges();
  const auto n = static_cast<graph::Vertex>(g.num_vertices());
  for (graph::Vertex v = 0; v + 1 < 40; ++v)
    edges.emplace_back(n + v, n + v + 1);
  g = graph::Graph::from_edges(n + 40, edges);
  const util::TempPath file = util::TempPath::file("lgg-serve-admit");
  graph::write_snap_edge_list_file(file.path(), g, "admission");

  ingest::IngestOptions serial;
  serial.threads = 1;
  const graph::LoadedGraph loaded =
      ingest::load_snap_file(file.path(), serial).loaded;
  const std::uint64_t digest = graph::loaded_graph_digest(loaded);
  const core::AlsPrecomputed plan = core::precompute_als(loaded.graph);
  const ingest::OrientedGraph dodg = ingest::orient_by_degree(loaded.graph,
                                                              nullptr);
  ASSERT_GT(plan.works.size(), 2u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{0},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    serve::CatalogOptions copts;
    copts.threads = threads;
    serve::Catalog catalog(copts);
    const serve::ResidentGraph& entry = catalog.load_file("g", file.path());
    EXPECT_EQ(entry.digest, digest);
    EXPECT_EQ(entry.plan.total_tests, plan.total_tests);
    EXPECT_EQ(entry.plan.chunk_tests, plan.chunk_tests);
    EXPECT_EQ(entry.plan.preprocessing_s, plan.preprocessing_s);
    ASSERT_EQ(entry.plan.works.size(), plan.works.size());
    for (std::size_t c = 0; c < plan.works.size(); ++c) {
      const core::ChunkWork& got = entry.plan.works[c];
      const core::ChunkWork& want = plan.works[c];
      EXPECT_EQ(got.tests, want.tests) << "chunk " << c;
      ASSERT_EQ(got.jobs.size(), want.jobs.size()) << "chunk " << c;
      for (std::size_t j = 0; j < want.jobs.size(); ++j) {
        EXPECT_EQ(got.jobs[j].local_to_global, want.jobs[j].local_to_global);
        EXPECT_EQ(got.jobs[j].s, want.jobs[j].s);
        EXPECT_EQ(got.jobs[j].x_max, want.jobs[j].x_max);
        EXPECT_EQ(got.jobs[j].tests, want.jobs[j].tests);
        EXPECT_EQ(got.jobs[j].test_offset, want.jobs[j].test_offset);
      }
    }
    EXPECT_EQ(entry.dodg.offsets, dodg.offsets);
    EXPECT_EQ(entry.dodg.targets, dodg.targets);
    EXPECT_EQ(entry.dodg.max_out_degree, dodg.max_out_degree);
  }
}

TEST(ServeFaults, ResponsesByteIdenticalAcrossThreadsUnderFaults) {
  // Serving under a nonzero device fault rate (DESIGN.md §16): the
  // service-owned injector makes the fault pattern a pure function of the
  // request sequence, so responses AND the request log stay byte-identical
  // between 1 and 8 host threads — only recovery counters move.
  const auto run = [](std::size_t threads) {
    obs::Session obs;
    serve::CatalogOptions copts;
    copts.obs = &obs;
    serve::Catalog catalog(copts);
    catalog.add("g0", graph::gnm(40, 120, 7));
    catalog.add("g1", graph::gnm(36, 90, 9));
    serve::ServeOptions sopts;
    sopts.obs = &obs;
    sopts.cache_capacity = 0;  // every triangles query hits the device
    sopts.fault_rate = 0.3;
    sopts.fault_seed = 1;  // this seed exercises retries AND salvage
    sopts.exec = threads == 1 ? gpusim::ExecPolicy::serial()
                              : gpusim::ExecPolicy::parallel(threads);
    serve::Service service(catalog, sopts);
    std::uint64_t id = 0;
    for (int round = 0; round < 3; ++round)
      for (const char* graph : {"g0", "g1"}) {
        serve::Request r;
        r.id = id++;
        r.tenant = "t";
        r.graph = graph;
        r.kind = serve::QueryKind::kTriangles;
        service.submit(std::move(r));
      }
    const std::string responses = render(service.drain());
    const std::uint64_t faults =
        service.faults() ? service.faults()->total_faults() : 0;
    return std::tuple(responses, service.log(),
                      obs.metrics.counter_value("lgg_resilience_retries_total"),
                      faults);
  };
  const auto [res1, log1, retries1, faults1] = run(1);
  const auto [res8, log8, retries8, faults8] = run(8);
  EXPECT_EQ(res1, res8);
  EXPECT_EQ(log1, log8);
  EXPECT_EQ(retries1, retries8);
  EXPECT_EQ(faults1, faults8);
  // Faults actually fired and the recovery machinery is visible in the
  // counters; the responses above are nevertheless exact.
  EXPECT_GT(faults1, 0u);
  EXPECT_GT(retries1, 0u);

  // Fault-free reference: same script, same bodies.
  const auto fault_free = [] {
    serve::Catalog catalog;
    catalog.add("g0", graph::gnm(40, 120, 7));
    catalog.add("g1", graph::gnm(36, 90, 9));
    serve::ServeOptions sopts;
    sopts.cache_capacity = 0;
    serve::Service service(catalog, sopts);
    serve::Request r;
    r.id = 0;
    r.tenant = "t";
    r.graph = "g0";
    r.kind = serve::QueryKind::kTriangles;
    service.submit(std::move(r));
    return service.drain()[0].body;
  }();
  EXPECT_NE(res1.find(fault_free), std::string::npos);
}

/// A serve state with a cache entry and a fault event: every section of
/// the serve checkpoint is present.
serve::ServeState sample_serve_state() {
  serve::ServeState st;
  st.next_id = 17;
  st.drain_seq = 3;
  st.log = "req id=0 tenant=a graph=g query=\"triangles\" cache=miss\n";
  serve::ResultCache::Snapshot::Entry e;
  e.key = serve::CacheKey{0x1234abcdu, "triangles", 0};
  e.body = "triangles=9 backend=resilient";
  e.tick = 2;
  st.cache.entries.push_back(e);
  st.cache.tick = 5;
  st.cache.evictions = 1;
  st.has_faults = true;
  st.faults.draws = {4, 3, 2, 1};
  st.faults.counts = {1, 0, 0, 0};
  st.faults.events.push_back(
      resilience::FaultEvent{gpusim::FaultSite::kAlloc, 2, 64});
  return st;
}

TEST(ServeState, EncodeDecodeRoundTripAndTamperRejection) {
  const serve::ServeState st = sample_serve_state();
  const serve::ResultCache::Snapshot::Entry& e = st.cache.entries[0];

  const std::string text = serve::encode_serve_state(st);
  const serve::ServeState back = serve::decode_serve_state(text);
  EXPECT_EQ(back.next_id, st.next_id);
  EXPECT_EQ(back.drain_seq, st.drain_seq);
  EXPECT_EQ(back.log, st.log);
  ASSERT_EQ(back.cache.entries.size(), 1u);
  EXPECT_EQ(back.cache.entries[0].body, e.body);
  EXPECT_EQ(back.cache.entries[0].key.canonical, "triangles");
  EXPECT_EQ(back.cache.tick, 5u);
  EXPECT_TRUE(back.has_faults);
  EXPECT_EQ(back.faults.draws, st.faults.draws);
  EXPECT_EQ(back.faults.events, st.faults.events);

  std::string tampered = text;
  tampered[tampered.size() / 2] ^= 0x01;
  try {
    (void)serve::decode_serve_state(tampered);
    FAIL() << "tampered serve state was accepted";
  } catch (const resilience::CheckpointError& err) {
    EXPECT_EQ(err.kind(), resilience::CheckpointError::Kind::kCorrupt);
  }
}

TEST(ServeState, CraftedLengthsAndIntegersAreCorrupt) {
  const std::string text = serve::encode_serve_state(sample_serve_state());
  constexpr std::size_t kFeCount = 1 + 2 * gpusim::kNumFaultSites;
  resilience::expect_all_corrupt(
      text,
      {
          {"fst", kFeCount, "18446744073709551615"},
          {"fst", kFeCount, "-1"},
          {"cache", 1, "18446744073709551615 0 4000000000000"},
          {"id", 1, "+5"},
          {"id", 1, "-1"},
          {"drain", 1, "100000000000000000000"},
          {"e", 3, "-1 2 triangles=9"},
      },
      [](const std::string& t) { return serve::decode_serve_state(t); });
}

TEST(ServeState, VersionOneIsRefusedAsVersion) {
  const std::string v2 = serve::encode_serve_state(sample_serve_state());
  // A version-1 body, digest intact: its fault-state line also held one
  // replay cursor per site before the event count.
  const std::string v1 = resilience::resealed(
      resilience::resealed(
          v2, {"fst", 1 + 2 * gpusim::kNumFaultSites, "0 0 0 0 1"}),
      {"lggsrvckpt", 1, "1"});
  try {
    (void)serve::decode_serve_state(v1);
    FAIL() << "version-1 serve checkpoint was accepted";
  } catch (const resilience::CheckpointError& e) {
    EXPECT_EQ(e.kind(), resilience::CheckpointError::Kind::kVersion)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("format version 1 (expected 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointPinned, FingerprintsDigestsAndServeBytesAreStable) {
  // Values persisted in checkpoints: a change here makes every existing
  // checkpoint unusable, so it must be a deliberate format change.
  resilience::RunnerOptions opts;
  opts.threads_per_block = 64;
  opts.retry.max_retries = 2;
  opts.stream_batch_tests = 1000;
  opts.checkpoint_every_chunks = 3;
  const gpusim::DeviceSpec& dev = gpusim::tesla_c1060();
  EXPECT_EQ(resilience::runner_options_fingerprint(opts, dev),
            0xca346b9b442ed6bbu);
  resilience::FaultInjector inj(7, resilience::FaultRates::uniform(0.05));
  opts.faults = &inj;
  EXPECT_EQ(resilience::runner_options_fingerprint(opts, dev),
            0x622eb4c5dfb5db15u);
  EXPECT_EQ(resilience::plan_digest_of({0, 3, 45, 1ull << 33, 7}),
            0xb86ef6c47134df6bu);
  EXPECT_EQ(serve::encode_serve_state(sample_serve_state()),
            "lggsrvckpt 2\n"
            "id 17\n"
            "drain 3\n"
            "log req%20id=0%20tenant=a%20graph=g%20query=\"triangles\"%20"
            "cache=miss%0a\n"
            "cache 5 1 1\n"
            "e 000000001234abcd triangles 0 2 "
            "triangles=9%20backend=resilient\n"
            "fau 1\n"
            "fst 4 3 2 1 1 0 0 0 1\n"
            "fe 0 2 64\n"
            "digest 26e23bf990f3553e\n");
}

TEST(ServeState, ServiceRestoreReproducesCacheAndLogBehavior) {
  // Drive a service through one drain, snapshot it, restore into a fresh
  // service, and replay the second drain on both: hit/miss pattern, log
  // suffix and responses must match exactly.
  const auto make_service = [](serve::Catalog& catalog) {
    serve::ServeOptions sopts;
    return serve::Service(catalog, sopts);
  };
  serve::Catalog cat_a = make_catalog();
  serve::Service svc_a = make_service(cat_a);
  std::uint64_t id = 0;
  const auto submit_round = [&](serve::Service& svc, std::uint64_t base) {
    for (const char* graph : {"g0", "g1"}) {
      serve::Request r;
      r.id = base++;
      r.tenant = "t";
      r.graph = graph;
      r.kind = serve::QueryKind::kTriangles;
      svc.submit(std::move(r));
    }
    return base;
  };
  id = submit_round(svc_a, id);
  svc_a.drain();
  serve::ServeState st = svc_a.state();
  st.next_id = id;

  // Continue the original.
  submit_round(svc_a, id);
  const std::string want = render(svc_a.drain());

  // Restore into a fresh service over a fresh catalog (residency is
  // recomputed, never checkpointed) and replay the same second round.
  serve::Catalog cat_b = make_catalog();
  serve::Service svc_b = make_service(cat_b);
  svc_b.restore_state(st);
  submit_round(svc_b, st.next_id);
  EXPECT_EQ(render(svc_b.drain()), want);
  EXPECT_EQ(svc_b.log(), svc_a.log());
  // The second round was all cache hits in both worlds.
  EXPECT_NE(svc_b.log().rfind("cache=hit"), std::string::npos);
}

TEST(ServeState, FaultConfigurationMismatchIsTypedAndChangesNothing) {
  // A checkpoint taken with --faults restored without them (and the
  // converse) is a typed plan mismatch, so lgg_serve warns and starts
  // cold instead of dying; the refused restore leaves the service as new.
  const auto run_one_drain = [](double fault_rate) {
    serve::Catalog catalog = make_catalog();
    serve::ServeOptions sopts;
    sopts.fault_rate = fault_rate;
    sopts.fault_seed = 3;
    serve::Service svc(catalog, sopts);
    serve::Request r;
    r.tenant = "t";
    r.graph = "g0";
    r.kind = serve::QueryKind::kTriangles;
    svc.submit(std::move(r));
    svc.drain();
    return svc.state();
  };
  for (const auto& [taken_with, restored_with] :
       {std::pair{0.1, 0.0}, std::pair{0.0, 0.1}}) {
    const serve::ServeState st = run_one_drain(taken_with);
    serve::Catalog catalog = make_catalog();
    serve::ServeOptions sopts;
    sopts.fault_rate = restored_with;
    sopts.fault_seed = 3;
    serve::Service svc(catalog, sopts);
    const std::string pristine = serve::encode_serve_state(svc.state());
    try {
      svc.restore_state(st);
      FAIL() << "restore across a fault configuration change was accepted";
    } catch (const resilience::CheckpointError& err) {
      EXPECT_EQ(err.kind(), resilience::CheckpointError::Kind::kPlanMismatch);
    }
    EXPECT_EQ(serve::encode_serve_state(svc.state()), pristine);
    EXPECT_TRUE(svc.log().empty());
  }
}

/// One drain's observable outcome: responses (or the exception text),
/// request log and cache snapshot (through the checkpoint encoding), the
/// BFS/cc memos, span tree and metrics.
struct DrainOutcome {
  std::string responses;
  std::string error;
  std::string state;
  std::string memos;
  std::string spans;
  std::string metrics;

  friend bool operator==(const DrainOutcome&, const DrainOutcome&) = default;
};

/// The memos of make_catalog()'s three graphs, in name order.
std::string render_memos(serve::Catalog& catalog) {
  std::string out;
  for (const std::string name : {"g0", "g1", "g2"}) {
    const serve::ResidentGraph& rg = *catalog.find(name);
    out += name + " bfs";
    for (const auto& [source, summary] : rg.bfs_memo)
      out += " " + std::to_string(source) + ":" +
             std::to_string(summary.depth) + "/" +
             std::to_string(summary.reached);
    out += rg.cc_memo ? " cc=" + std::to_string(rg.cc_memo->size()) : " cc=-";
    out += "\n";
  }
  return out;
}

/// Host passes of one kind each, over two graphs, with triangles passes
/// before, between and after them: more host passes in a row than one
/// wave holds, a batched bfs pair, an out-of-range bfs source and an
/// optional directly built doulion request that throws (p = 0).
std::vector<serve::Request> wave_script(std::uint64_t base, bool throwing) {
  struct Line {
    const char* graph;
    serve::QueryKind kind;
    double p;
    std::uint64_t n;  // samples / k / vertex
    std::uint64_t seed;
  };
  using K = serve::QueryKind;
  std::vector<Line> lines = {
      {"g0", K::kTriangles, 0, 0, 0}, {"g0", K::kDoulion, 0.5, 0, 1},
      {"g1", K::kWedges, 0, 300, 2},  {"g0", K::kBfs, 0, 3, 0},
      {"g1", K::kBfs, 0, 5, 0},       {"g0", K::kCc, 0, 4, 0},
      {"g1", K::kKClique, 0, 4, 0},   {"g1", K::kDoulion, 0.25, 0, 9},
      {"g0", K::kWedges, 0, 200, 4},  {"g1", K::kCc, 0, 2, 0},
      {"g0", K::kBfs, 0, 40, 0},      {"g1", K::kTriangles, 0, 0, 0},
      {"g0", K::kKClique, 0, 3, 0},   {"g1", K::kBfs, 0, 5, 0},
      {"g1", K::kDoulion, 0.5, 0, 3}, {"g0", K::kBfs, 0, 7, 0}};
  if (throwing) lines.insert(lines.begin() + 5, {"g0", K::kDoulion, 0, 0, 6});
  std::vector<serve::Request> reqs;
  for (const Line& l : lines) {
    serve::Request r;
    r.id = base + reqs.size();
    r.tenant = "t";  // one tenant: passes follow the script order
    r.graph = l.graph;
    r.kind = l.kind;
    r.p = l.p;
    r.seed = l.seed;
    if (l.kind == K::kWedges) r.samples = l.n;
    if (l.kind == K::kKClique) r.k = static_cast<std::uint32_t>(l.n);
    if (l.kind == K::kBfs || l.kind == K::kCc)
      r.vertex = static_cast<graph::Vertex>(l.n);
    reqs.push_back(r);
  }
  return reqs;
}

/// Two drains of wave_script (the second one partly served from the
/// cache and the memos) under one execution policy.
DrainOutcome run_waves(const gpusim::ExecPolicy& exec, bool throwing) {
  obs::Session obs;
  serve::Catalog catalog = make_catalog(&obs);
  serve::ServeOptions sopts;
  sopts.obs = &obs;
  sopts.exec = exec;
  sopts.cache_capacity = 12;  // small enough to evict within a drain
  serve::Service service(catalog, sopts);
  DrainOutcome out;
  for (const std::uint64_t base : {0, 100}) {
    for (serve::Request& r : wave_script(base, throwing))
      service.submit(std::move(r));
    try {
      out.responses += render(service.drain());
    } catch (const Error& e) {
      out.error += std::string(e.what()) + "\n";
    }
  }
  out.state = serve::encode_serve_state(service.state());
  out.memos = render_memos(catalog);
  out.spans = obs::span_tree_text(obs.tracer);
  out.metrics = obs.metrics.prometheus_text();
  return out;
}

TEST(ServeWaves, HostPassFanOutIsByteIdenticalAtAnyPolicy) {
  const DrainOutcome want = run_waves(gpusim::ExecPolicy::serial(), false);
  EXPECT_TRUE(want.error.empty()) << want.error;
  // The script really has waves: more host passes in a row than a wave
  // holds, between triangles passes, and memo hits in the second drain.
  EXPECT_NE(want.state.find("backend=resilient"), std::string::npos);
  EXPECT_NE(want.state.find("cache=hit"), std::string::npos);
  EXPECT_NE(want.state.find("size=2%20backend=host"), std::string::npos);
  EXPECT_NE(want.responses.find("reason=\"vertex out of range\""),
            std::string::npos);
  EXPECT_NE(want.memos.find("g0 bfs 3:"), std::string::npos);
  EXPECT_NE(want.memos.find("cc=40"), std::string::npos);
  EXPECT_NE(want.memos.find("cc=36"), std::string::npos);
  for (const std::size_t threads : {0, 1, 3, 8}) {
    const DrainOutcome got =
        run_waves(gpusim::ExecPolicy::parallel(threads), false);
    EXPECT_EQ(got.responses, want.responses) << threads << " threads";
    EXPECT_EQ(got.state, want.state) << threads << " threads";
    EXPECT_EQ(got.memos, want.memos) << threads << " threads";
    EXPECT_EQ(got.spans, want.spans) << threads << " threads";
    EXPECT_EQ(got.metrics, want.metrics) << threads << " threads";
  }
}

TEST(ServeWaves, ThrowingPassRethrowsAtItsTurnAtAnyPolicy) {
  const DrainOutcome want = run_waves(gpusim::ExecPolicy::serial(), true);
  // Both drains throw the doulion backend's own error...
  EXPECT_EQ(want.error, "doulion: p=0 not in (0,1]\n"
                        "doulion: p=0 not in (0,1]\n");
  EXPECT_TRUE(want.responses.empty());
  // ...after committing exactly the passes before it, in its wave: the
  // estimates and both bfs sources are cached and memoized, the cc pass
  // right after it is not.
  EXPECT_NE(want.state.find("doulion%20p=0.5%20seed=1"), std::string::npos);
  EXPECT_NE(want.state.find("wedges%20samples=300%20seed=2"),
            std::string::npos);
  EXPECT_EQ(want.state.find("cc%20v=4"), std::string::npos);
  const auto summary = [](const graph::Graph& g, graph::Vertex source) {
    const serve::BfsSummary s = serve::summarize_bfs(graph::bfs(g, source));
    return std::to_string(source) + ":" + std::to_string(s.depth) + "/" +
           std::to_string(s.reached);
  };
  EXPECT_EQ(want.memos, "g0 bfs " + summary(graph::gnm(40, 120, 7), 3) +
                            " cc=-\ng1 bfs " +
                            summary(graph::gnm(36, 90, 9), 5) +
                            " cc=-\ng2 bfs cc=-\n");
  for (const std::size_t threads : {0, 1, 3, 8}) {
    const DrainOutcome got =
        run_waves(gpusim::ExecPolicy::parallel(threads), true);
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

TEST(ServeRequest, ParseAndCanonicalRoundTrip) {
  const serve::Request r =
      serve::parse_request_line("alice g1 doulion 0.25 42");
  EXPECT_EQ(r.tenant, "alice");
  EXPECT_EQ(r.graph, "g1");
  EXPECT_EQ(r.kind, serve::QueryKind::kDoulion);
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(serve::canonical_query(r), "doulion p=0.25 seed=42");

  EXPECT_THROW(serve::parse_request_line("just two"), Error);
  EXPECT_THROW(serve::parse_request_line("a g frobnicate"), Error);
  EXPECT_THROW(serve::parse_request_line("a g kclique 99"), Error);
  EXPECT_THROW(serve::parse_request_line("a g doulion 1.5 2"), Error);
  // Strict integers: no sign, no overflow, vertex ids fit 32 bits.
  EXPECT_THROW(serve::parse_request_line("a g bfs 4294967296"), Error);
  EXPECT_THROW(serve::parse_request_line("a g cc 4294967297"), Error);
  EXPECT_THROW(serve::parse_request_line("a g bfs -1"), Error);
  EXPECT_THROW(serve::parse_request_line("a g bfs +5"), Error);
  EXPECT_THROW(serve::parse_request_line("a g wedges 99999999999999999999 1"),
               Error);
  EXPECT_THROW(serve::parse_request_line("a g kclique 3x"), Error);
  EXPECT_EQ(serve::parse_request_line("a g cc 4294967295").vertex,
            4294967295u);
}

}  // namespace
}  // namespace lgg
