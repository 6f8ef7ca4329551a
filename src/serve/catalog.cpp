#include "serve/catalog.hpp"

#include <utility>

#include "graph/digest.hpp"
#include "ingest/ingest.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lgg::serve {

BfsSummary summarize_bfs(const graph::BfsTree& tree) {
  BfsSummary summary;
  summary.depth = tree.depth;
  for (const std::uint32_t lvl : tree.level)
    if (lvl != graph::kUnreached) ++summary.reached;
  return summary;
}

ResidentGraph& Catalog::load_file(const std::string& name,
                                  const std::string& path) {
  ingest::IngestOptions iopts;
  iopts.threads = opts_.threads;
  iopts.obs = opts_.obs;
  return admit(name, ingest::load_snap_file(path, iopts).loaded);
}

ResidentGraph& Catalog::add(const std::string& name, graph::Graph g) {
  graph::LoadedGraph loaded;
  loaded.original_ids.reserve(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v)
    loaded.original_ids.push_back(v);
  loaded.graph = std::move(g);
  return admit(name, std::move(loaded));
}

ResidentGraph& Catalog::admit(const std::string& name,
                              graph::LoadedGraph loaded) {
  LGG_CHECK(graphs_.find(name) == graphs_.end(),
            "serve: graph '" << name << "' is already resident");
  obs::Scope span(opts_.obs, "serve/admit[" + name + "]", "serve");

  ResidentGraph entry;
  entry.name = name;
  entry.loaded = std::move(loaded);

  // Preprocessing, computed once per resident graph: the digest, the
  // Algorithm 1 plan (ALS chunk schedule) and the degree-ordered
  // orientation.  The digest and the plan are serial and independent, so
  // unless the catalog runs serial (threads == 1) they run as two tasks
  // of one parallel_for; the orientation then fans out on the pool.
  core::HybridOptions popts;
  popts.device = opts_.device;
  popts.metric = opts_.metric;
  const auto digest_or_plan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t task = begin; task < end; ++task) {
      if (task == 0)
        entry.digest = graph::loaded_graph_digest(entry.loaded);
      else
        entry.plan = core::precompute_als(entry.loaded.graph, popts);
    }
  };
  if (opts_.threads == 1)
    digest_or_plan(0, 2);
  else
    ThreadPool::shared().parallel_for(2, digest_or_plan);
  entry.dodg =
      ingest::orient_by_degree(entry.loaded.graph, &ThreadPool::shared());

  if (span) {
    span.arg("digest", graph::digest_hex(entry.digest));
    span.arg("vertices",
             static_cast<std::uint64_t>(entry.loaded.graph.num_vertices()));
    span.arg("edges",
             static_cast<std::uint64_t>(entry.loaded.graph.num_edges()));
    span.arg("chunks",
             static_cast<std::uint64_t>(entry.plan.chunking.chunks.size()));
  }
  if (opts_.obs != nullptr)
    opts_.obs->metrics.count("lgg_serve_graphs_resident_total");

  auto [it, inserted] = graphs_.emplace(name, std::move(entry));
  LGG_ASSERT(inserted);
  return it->second;
}

ResidentGraph* Catalog::find(const std::string& name) {
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : &it->second;
}

}  // namespace lgg::serve
