// Extension bench (the paper's Section XII future work): triangle
// counting over an on-disk edge stream with bounded memory.  Sweeps the
// memory budget and reports the passes/memory/time trade-off, plus the
// single-pass streaming DOULION estimate.
#include <cmath>
#include <iostream>

#include "core/triangle_cpu.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "stream/streaming_triangles.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/temp_path.hpp"

int main() {
  using namespace lgg;
  std::cout << "=== Extension: external-memory triangle counting "
               "(Section XII future work) ===\n\n";

  const graph::Graph g = graph::layered_random(20000, 400, 0.01, 0.005, 77);
  const util::TempPath file = util::TempPath::file("lgg-bench-stream");
  const std::string& path = file.path();
  graph::write_snap_edge_list_file(path, g, "streaming bench workload");
  const std::uint64_t truth = core::count_triangles_forward(g);
  std::cout << "graph: " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges, " << truth
            << " triangles, stored at " << path << "\n\n";

  const stream::EdgeStream es(path);
  TextTable table({"Budget (edges)", "Intervals", "Passes",
                   "Peak edges in memory", "Triangles", "wall_s"});
  for (const std::uint64_t budget :
       {std::uint64_t{10000}, std::uint64_t{50000}, std::uint64_t{1} << 20}) {
    Stopwatch wall;
    const auto r = stream::count_triangles_external(es, budget);
    table.new_row()
        .add(budget)
        .add(std::uint64_t{r.intervals})
        .add(r.passes)
        .add(r.peak_edges)
        .add(r.triangles)
        .add(wall.elapsed_s(), 2);
    if (r.triangles != truth)
      std::cout << "!! mismatch at budget " << budget << "\n";
  }
  table.print(std::cout);

  std::cout << "\nSingle-pass streaming DOULION:\n";
  TextTable doulion({"p", "kept edges", "estimate", "rel. error %"});
  for (const double p : {1.0, 0.5, 0.25}) {
    const auto r = stream::doulion_stream(es, p, 5);
    doulion.new_row()
        .add(p, 2)
        .add(r.kept_edges)
        .add(r.estimate, 0)
        .add(100.0 * std::abs(r.estimate - static_cast<double>(truth)) /
                 static_cast<double>(truth),
             1);
  }
  doulion.print(std::cout);

  std::cout << "\nExpected shape: smaller budgets trade passes for memory "
               "(P ~ 3*sqrt(m/B), passes ~ P^3/6) while the count stays "
               "exact; streaming DOULION is one pass with sampling error.\n";
  return 0;
}
