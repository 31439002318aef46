/// Decomposition and order microbenchmarks: core peeling, the paper's
/// Algorithm 7 bicore peeling, order computation and centred-subgraph
/// statistics.

#include <benchmark/benchmark.h>

#include "graph/generators.h"
#include "order/bicore_decomposition.h"
#include "order/core_decomposition.h"
#include "order/vertex_centered.h"

namespace {

using namespace mbb;

BipartiteGraph SparseGraph(std::uint32_t n) {
  return RandomChungLu(n, n, 4 * n, 2.1, 42);
}

void BM_CoreDecomposition(benchmark::State& state) {
  const BipartiteGraph g = SparseGraph(
      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    CoreDecomposition d = ComputeCores(g);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_CoreDecomposition)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_N2Sizes(benchmark::State& state) {
  const BipartiteGraph g = SparseGraph(
      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto sizes = ComputeN2Sizes(g);
    benchmark::DoNotOptimize(sizes);
  }
}
BENCHMARK(BM_N2Sizes)->Arg(1024)->Arg(8192);

void BM_BicoreDecomposition(benchmark::State& state) {
  const BipartiteGraph g = SparseGraph(
      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    BicoreDecomposition d = ComputeBicores(g);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_BicoreDecomposition)->Arg(1024)->Arg(8192);

void BM_VertexOrder(benchmark::State& state) {
  const BipartiteGraph g = SparseGraph(4096);
  const VertexOrderKind kind =
      static_cast<VertexOrderKind>(state.range(0));
  for (auto _ : state) {
    VertexOrder order = ComputeVertexOrder(g, kind);
    benchmark::DoNotOptimize(order);
  }
}
BENCHMARK(BM_VertexOrder)
    ->Arg(static_cast<int>(VertexOrderKind::kDegree))
    ->Arg(static_cast<int>(VertexOrderKind::kDegeneracy))
    ->Arg(static_cast<int>(VertexOrderKind::kBidegeneracy));

void BM_CenteredStats(benchmark::State& state) {
  const BipartiteGraph g = SparseGraph(2048);
  const VertexOrder order =
      ComputeVertexOrder(g, VertexOrderKind::kBidegeneracy);
  for (auto _ : state) {
    CenteredSubgraphStats stats = ComputeCenteredStats(g, order);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_CenteredStats);

}  // namespace

BENCHMARK_MAIN();
