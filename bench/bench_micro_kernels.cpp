// Host microbenchmarks for the expansion kernels and the full Enterprise
// traversal: simulation throughput in edges/second.
#include <benchmark/benchmark.h>

#include "enterprise/enterprise_bfs.hpp"
#include "enterprise/hub_cache.hpp"
#include "enterprise/kernels.hpp"
#include "graph/generators.hpp"
#include "gpusim/device.hpp"
#include "util/random.hpp"

namespace {

using namespace ent;

graph::Csr bench_graph(int scale) {
  graph::KroneckerParams p;
  p.scale = scale;
  p.edge_factor = 16;
  p.seed = 1;
  return graph::generate_kronecker(p);
}

void BM_ExpandTopDownThread(benchmark::State& state) {
  const graph::Csr g = bench_graph(static_cast<int>(state.range(0)));
  sim::Device dev(sim::k40());
  std::vector<graph::vertex_t> queue;
  for (graph::vertex_t v = 0; v < g.num_vertices(); v += 4) queue.push_back(v);
  for (auto _ : state) {
    enterprise::StatusArray status(g.num_vertices());
    BitArray visits(g.num_vertices());
    std::vector<graph::vertex_t> parents(g.num_vertices(),
                                         graph::kInvalidVertex);
    sim::KernelRecord rec;
    benchmark::DoNotOptimize(enterprise::expand_top_down(
        g, status, visits, parents, queue, enterprise::Granularity::kThread,
        1, dev.memory(), rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges() / 4));
}
BENCHMARK(BM_ExpandTopDownThread)->Arg(12)->Arg(14);

void BM_ExpandBottomUpWithCache(benchmark::State& state) {
  const graph::Csr g = bench_graph(static_cast<int>(state.range(0)));
  sim::Device dev(sim::k40());
  enterprise::HubCache cache(1024);
  for (graph::vertex_t v = 0; v < 64; ++v) cache.insert(v);
  std::vector<graph::vertex_t> queue;
  for (graph::vertex_t v = 64; v < g.num_vertices(); v += 2) {
    queue.push_back(v);
  }
  for (auto _ : state) {
    enterprise::StatusArray status(g.num_vertices());
    for (graph::vertex_t v = 0; v < 64; ++v) status.visit(v, 1);
    std::vector<graph::vertex_t> parents(g.num_vertices(),
                                         graph::kInvalidVertex);
    BitArray parent_bits = status.parent_bits(2);
    sim::KernelRecord rec;
    benchmark::DoNotOptimize(enterprise::expand_bottom_up(
        g, status, parent_bits, parents, queue,
        enterprise::Granularity::kThread, 2, &cache, dev.memory(), rec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queue.size()));
}
BENCHMARK(BM_ExpandBottomUpWithCache)->Arg(12)->Arg(14);

void BM_FullEnterpriseBfs(benchmark::State& state) {
  const graph::Csr g = bench_graph(static_cast<int>(state.range(0)));
  enterprise::EnterpriseOptions opt;
  opt.device = sim::k40_sim();
  enterprise::EnterpriseBfs sys(g, opt);
  graph::vertex_t source = 0;
  while (g.out_degree(source) < 4) ++source;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.run(source));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_FullEnterpriseBfs)->Arg(12)->Arg(14)->Arg(16);

void BM_HubCacheProbe(benchmark::State& state) {
  enterprise::HubCache cache(static_cast<std::size_t>(state.range(0)));
  SplitMix64 rng(3);
  for (int i = 0; i < state.range(0) / 2; ++i) {
    cache.insert(static_cast<graph::vertex_t>(rng.next()));
  }
  graph::vertex_t probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.contains(probe));
    probe = probe * 2654435761u + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HubCacheProbe)->Arg(256)->Arg(1024)->Arg(8192);

void BM_ReverseCsr(benchmark::State& state) {
  graph::RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edge_factor = 8;
  p.seed = 2;
  const graph::Csr g = graph::generate_rmat(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.reversed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ReverseCsr)->Arg(12)->Arg(14);

}  // namespace
