/// Search-algorithm microbenchmarks and ablations: denseMBB vs basicBB on
/// dense inputs, the denseMBB option ablations DESIGN.md calls out, the
/// Algorithm 2 polynomial solver, and the sparse pipeline end to end.

#include <benchmark/benchmark.h>

#include "baselines/ext_bbclq.h"
#include "core/basic_bb.h"
#include "core/dense_mbb.h"
#include "core/dynamic_mbb.h"
#include "core/hbv_mbb.h"
#include "engine/search_context.h"
#include "graph/dense_subgraph.h"
#include "graph/generators.h"

namespace {

using namespace mbb;

DenseSubgraph WholeDense(const BipartiteGraph& g) {
  return DenseSubgraph::Whole(g);
}

void BM_DenseMbb(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const BipartiteGraph g = RandomUniform(n, n, density, 7);
  const DenseSubgraph s = WholeDense(g);
  for (auto _ : state) {
    MbbResult result = DenseMbbSolve(s);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DenseMbb)
    ->Args({24, 80})
    ->Args({24, 90})
    ->Args({48, 90})
    ->Args({64, 90});

/// Same workload as BM_DenseMbb but reusing one SearchContext across
/// solves — the pooled-arena pattern of the sparse pipeline and the engine
/// adapters. The gap against BM_DenseMbb is the pooling win.
void BM_DenseMbbPooledContext(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const BipartiteGraph g = RandomUniform(n, n, density, 7);
  const DenseSubgraph s = WholeDense(g);
  SearchContext ctx;
  for (auto _ : state) {
    MbbResult result = DenseMbbSolve(s, {}, 0, &ctx);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DenseMbbPooledContext)->Args({24, 80})->Args({24, 90});

void BM_BasicBb(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const BipartiteGraph g = RandomUniform(n, n, density, 7);
  const DenseSubgraph s = WholeDense(g);
  for (auto _ : state) {
    MbbResult result = BasicBbSolve(s);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BasicBb)->Args({24, 80})->Args({24, 90});

/// Ablations of Algorithm 3's three ingredients (DESIGN.md design-choice
/// bench): full, no reductions, no polynomial case, no missing-3 branching.
void BM_DenseMbbAblation(benchmark::State& state) {
  const int config = static_cast<int>(state.range(0));
  DenseMbbOptions options;
  options.use_reductions = config != 1;
  options.use_poly_case = config != 2;
  options.use_missing_branching = config != 3;
  const BipartiteGraph g = RandomUniform(40, 40, 0.85, 11);
  const DenseSubgraph s = WholeDense(g);
  for (auto _ : state) {
    MbbResult result = DenseMbbSolve(s, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DenseMbbAblation)->DenseRange(0, 3);

void BM_DynamicMbbPolySolver(benchmark::State& state) {
  // K(n,n) minus a perfect matching: pure Algorithm 2 workload.
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  std::vector<Edge> edges;
  for (VertexId l = 0; l < n; ++l) {
    for (VertexId r = 0; r < n; ++r) {
      if (l != r) edges.emplace_back(l, r);
    }
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(n, n, edges);
  const DenseSubgraph s = WholeDense(g);
  BitMatrix candidates(2, n);
  candidates.Row(0).SetAll();
  candidates.Row(1).SetAll();
  for (auto _ : state) {
    bool poly = false;
    DynamicMbbOutcome outcome = TryDynamicMbb(
        s, {}, {}, candidates.Row(0), candidates.Row(1), 0, &poly);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_DynamicMbbPolySolver)->Arg(32)->Arg(128)->Arg(512);

void BM_HbvMbbSparse(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const BipartiteGraph g =
      RandomSparseWithPlanted(n, n, 4 * n, 8, 2.1, 13);
  for (auto _ : state) {
    MbbResult result = HbvMbb(g);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HbvMbbSparse)->Arg(1024)->Arg(8192);

void BM_HbvMbbOrders(benchmark::State& state) {
  const BipartiteGraph g =
      RandomSparseWithPlanted(4096, 4096, 16384, 8, 2.1, 17);
  HbvOptions options;
  options.order = static_cast<VertexOrderKind>(state.range(0));
  for (auto _ : state) {
    MbbResult result = HbvMbb(g, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HbvMbbOrders)
    ->Arg(static_cast<int>(VertexOrderKind::kDegree))
    ->Arg(static_cast<int>(VertexOrderKind::kDegeneracy))
    ->Arg(static_cast<int>(VertexOrderKind::kBidegeneracy));

void BM_ExtBbclqSparse(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const BipartiteGraph g =
      RandomSparseWithPlanted(n, n, 4 * n, 8, 2.1, 13);
  for (auto _ : state) {
    MbbResult result = ExtBbclqSolve(g);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExtBbclqSparse)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
