// Google-benchmark microbenchmarks of the hot primitives underneath the
// paper's pipeline: combinadic unranking, ALS test decoding, adjacency
// probes, coalescing, and the reference counters.
#include <array>
#include <benchmark/benchmark.h>

#include "combi/binomial.hpp"
#include "combi/combinadic.hpp"
#include "core/als_plan.hpp"
#include "core/triangle_cpu.hpp"
#include "graph/bit_matrix.hpp"
#include "graph/generators.hpp"
#include "gpusim/banks.hpp"
#include "gpusim/coalescing.hpp"
#include "util/prng.hpp"

namespace {

using namespace lgg;

void BM_Binomial(benchmark::State& state) {
  std::uint64_t n = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(combi::binomial(n, 3));
    n += 7;  // defeat constant folding
  }
}
BENCHMARK(BM_Binomial);

void BM_CombinationUnrank(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint64_t total = combi::binomial(n, 3);
  Xoshiro256 rng(1);
  std::uint32_t buf[3];
  for (auto _ : state) {
    combi::combination_from_index(rng.uniform(total), n, 3,
                                  std::span<std::uint32_t>(buf, 3));
    benchmark::DoNotOptimize(buf[2]);
  }
}
BENCHMARK(BM_CombinationUnrank)->Arg(1000)->Arg(100000);

void BM_AlsDecode(benchmark::State& state) {
  core::AlsJob job;
  job.s = static_cast<std::uint32_t>(state.range(0));
  job.a = job.s / 2;
  job.x_max = job.a;
  job.tests = core::als_total_tests(job.s, job.x_max);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    const auto t = core::als_decode_test(job, rng.uniform(job.tests));
    benchmark::DoNotOptimize(t.z);
  }
}
BENCHMARK(BM_AlsDecode)->Arg(1000)->Arg(50000);

void BM_HasEdgeCsr(benchmark::State& state) {
  const graph::Graph g = graph::erdos_renyi(2000, 0.01, 3);
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g.has_edge(static_cast<graph::Vertex>(rng.uniform(2000)),
                   static_cast<graph::Vertex>(rng.uniform(2000))));
  }
}
BENCHMARK(BM_HasEdgeCsr);

void BM_BitMatrixProbe(benchmark::State& state) {
  const graph::BitMatrix m =
      graph::BitMatrix::from_graph(graph::erdos_renyi(2000, 0.01, 3));
  Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.get(rng.uniform(2000), rng.uniform(2000)));
  }
}
BENCHMARK(BM_BitMatrixProbe);

// One warp slot through the executor's entry point (coalesce_slot, no
// allocation).  Arg 0: 32 scattered lanes (worst case, 32 segments);
// Arg 1: 32 consecutive words (Table III best case).
void BM_CoalesceWarp(benchmark::State& state) {
  Xoshiro256 rng(5);
  std::array<gpusim::LaneAccess, 32> accesses;
  for (std::uint32_t l = 0; l < 32; ++l)
    accesses[l] = {l, state.range(0) == 0 ? rng.uniform(1 << 16) * 4
                                          : 4096 + 4ull * l};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gpusim::coalesce_slot(gpusim::ComputeCapability::k13, accesses, 4)
            .count);
  }
}
BENCHMARK(BM_CoalesceWarp)->Arg(0)->Arg(1);

// One half-warp's bank-conflict degree, as the executor calls it.
void BM_BankConflict(benchmark::State& state) {
  std::array<std::uint64_t, 16> addrs;
  for (std::uint32_t l = 0; l < 16; ++l) addrs[l] = 8ull * l;
  for (auto _ : state)
    benchmark::DoNotOptimize(gpusim::bank_conflict_degree(addrs, 16));
}
BENCHMARK(BM_BankConflict);

void BM_TriangleForward(benchmark::State& state) {
  const graph::Graph g =
      graph::barabasi_albert(static_cast<std::size_t>(state.range(0)), 4, 6);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::count_triangles_forward(g));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_TriangleForward)->Arg(1000)->Arg(10000);

void BM_TriangleAlsCpu(benchmark::State& state) {
  const graph::Graph g = graph::erdos_renyi(120, 0.1, 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::count_triangles_cpu_als(g).triangles);
}
BENCHMARK(BM_TriangleAlsCpu);

void BM_BuildAlsPlan(benchmark::State& state) {
  const graph::Graph g = graph::layered_random(
      static_cast<std::size_t>(state.range(0)), 200, 0.02, 0.01, 8);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::build_als_plan(g).total_tests);
}
BENCHMARK(BM_BuildAlsPlan)->Arg(2000)->Arg(20000);

}  // namespace
