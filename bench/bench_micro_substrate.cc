/// Substrate microbenchmarks: bit_ops kernels (scalar vs dispatched SIMD),
/// BitMatrix arena locality, graph construction, dense
/// subgraph extraction, generators. Each kernel runs once pinned to the
/// scalar backend and once through the dispatched one; set
/// MBB_FORCE_SCALAR=1 to make the dispatched runs scalar too.

#include <numeric>
#include <random>

#include <benchmark/benchmark.h>

#include "graph/bipartite_graph.h"
#include "graph/bit_matrix.h"
#include "graph/bit_ops.h"
#include "graph/dense_subgraph.h"
#include "graph/generators.h"

namespace {

using namespace mbb;

/// Two rows of random words at the benchmark size, plus a destination row,
/// all cache-line aligned in one BitMatrix arena.
struct KernelFixture {
  explicit KernelFixture(std::size_t bits) : arena(3, bits) {
    std::mt19937_64 rng(17);
    for (std::size_t r = 0; r < 2; ++r) {
      BitRow row = arena.Row(r);
      for (std::size_t i = 0; i < bits; ++i) {
        if (rng() & 1) row.Set(i);
      }
    }
    words = BitWords(bits);
  }
  BitMatrix arena;
  std::size_t words = 0;

  const std::uint64_t* a() const { return arena.RowWords(0); }
  const std::uint64_t* b() const { return arena.RowWords(1); }
  std::uint64_t* dst() { return arena.RowWords(2); }
};

// ---------------------------------------------------------------------------
// Kernel benchmarks. Each reports counters["words"] and labels the run
// with the backend it pins, so the console rows read (kernel, words,
// ns/op, dispatch path). One templated body per kernel shape; the
// BM_Kernel<Name> / BM_Kernel<Name>Scalar pairs differ only in the kernel
// pointer and label they instantiate with.
// ---------------------------------------------------------------------------

using CountKernel = std::size_t (*)(const std::uint64_t*, std::size_t);
using Count2Kernel = std::size_t (*)(const std::uint64_t*,
                                     const std::uint64_t*, std::size_t);
using IntoKernel = void (*)(std::uint64_t*, const std::uint64_t*,
                            const std::uint64_t*, std::size_t);
using CountIntoKernel = std::size_t (*)(std::uint64_t*, const std::uint64_t*,
                                        const std::uint64_t*, std::size_t);

void FinishKernelRun(benchmark::State& state, std::size_t words,
                     const char* label) {
  state.counters["words"] = static_cast<double>(words);
  state.SetLabel(label);
}

template <CountKernel kKernel>
void BM_CountShape(benchmark::State& state, const char* label) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kKernel(f.a(), f.words));
  }
  FinishKernelRun(state, f.words, label);
}

template <Count2Kernel kKernel>
void BM_Count2Shape(benchmark::State& state, const char* label) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kKernel(f.a(), f.b(), f.words));
  }
  FinishKernelRun(state, f.words, label);
}

template <IntoKernel kKernel>
void BM_IntoShape(benchmark::State& state, const char* label) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    kKernel(f.dst(), f.a(), f.b(), f.words);
    benchmark::DoNotOptimize(f.dst());
  }
  FinishKernelRun(state, f.words, label);
}

template <CountIntoKernel kKernel>
void BM_CountIntoShape(benchmark::State& state, const char* label) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kKernel(f.dst(), f.a(), f.b(), f.words));
  }
  FinishKernelRun(state, f.words, label);
}

const char* Dispatched() { return bitops::ActiveDispatchName(); }

#define MBB_KERNEL_BENCH(name, shape, scalar_fn, dispatch_fn)             \
  void BM_Kernel##name##Scalar(benchmark::State& state) {                 \
    shape<scalar_fn>(state, "scalar");                                    \
  }                                                                       \
  void BM_Kernel##name(benchmark::State& state) {                         \
    shape<dispatch_fn>(state, Dispatched());                              \
  }

MBB_KERNEL_BENCH(CountAnd, BM_Count2Shape, bitops::scalar::CountAnd,
                 bitops::CountAnd)
MBB_KERNEL_BENCH(AndCountInto, BM_CountIntoShape,
                 bitops::scalar::AndCountInto, bitops::AndCountInto)
MBB_KERNEL_BENCH(Count, BM_CountShape, bitops::scalar::Count, bitops::Count)
MBB_KERNEL_BENCH(AndInto, BM_IntoShape, bitops::scalar::AndInto,
                 bitops::AndInto)

BENCHMARK(BM_KernelCountAndScalar)->Arg(256)->Arg(512)->Arg(2048)->Arg(16384);
BENCHMARK(BM_KernelCountAnd)->Arg(256)->Arg(512)->Arg(2048)->Arg(16384);
BENCHMARK(BM_KernelAndCountIntoScalar)
    ->Arg(256)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(16384);
BENCHMARK(BM_KernelAndCountInto)->Arg(256)->Arg(512)->Arg(2048)->Arg(16384);
BENCHMARK(BM_KernelCountScalar)->Arg(256)->Arg(2048)->Arg(16384);
BENCHMARK(BM_KernelCount)->Arg(256)->Arg(2048)->Arg(16384);
BENCHMARK(BM_KernelAndIntoScalar)->Arg(256)->Arg(2048);
BENCHMARK(BM_KernelAndInto)->Arg(256)->Arg(2048);

// ---------------------------------------------------------------------------
// Arena locality: sweeping CountAnd over all rows of a BitMatrix
// (contiguous, fixed stride) vs per-row heap-allocated word vectors. Same
// bit content, same kernels — the gap is layout.
// ---------------------------------------------------------------------------

/// The every-other-bit mask each row sweep intersects with, as a 1-row
/// arena.
BitMatrix SweepMask(std::size_t bits) {
  BitMatrix mask(1, bits);
  BitRow row = mask.Row(0);
  for (std::size_t i = 0; i < bits; i += 2) row.Set(i);
  return mask;
}

void BM_RowSweepBitMatrix(benchmark::State& state) {
  const std::size_t rows = 256;
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BitMatrix m(rows, bits);
  std::mt19937_64 rng(23);
  for (std::size_t r = 0; r < rows; ++r) {
    BitRow row = m.Row(r);
    for (std::size_t i = 0; i < bits; i += 1 + rng() % 4) row.Set(i);
  }
  const BitMatrix mask = SweepMask(bits);
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      total += m.Row(r).CountAnd(mask.Row(0));
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["words"] = static_cast<double>(BitWords(bits));
  state.SetLabel(bitops::ActiveDispatchName());
}
// 64/128 bits hit the tight sub-cache-line strides of the adaptive
// layout; 65536 bits x 256 rows = 2 MiB of rows — past L2 on most parts,
// where the plain sweep stalls on every row boundary.
BENCHMARK(BM_RowSweepBitMatrix)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(2048)
    ->Arg(16384)
    ->Arg(65536);

/// The same sweep with `BitSpan::Prefetch` lookahead — the pattern the
/// denseMBB reduction and branch-selection loops use. The hardware stride
/// prefetcher tracks the *within-row* streams but restarts cold at each
/// row boundary once the arena falls out of L2; hinting row r+1 while the
/// kernel crunches row r hides that latency.
void BM_RowSweepBitMatrixPrefetch(benchmark::State& state) {
  const std::size_t rows = 256;
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  BitMatrix m(rows, bits);
  std::mt19937_64 rng(23);
  for (std::size_t r = 0; r < rows; ++r) {
    BitRow row = m.Row(r);
    for (std::size_t i = 0; i < bits; i += 1 + rng() % 4) row.Set(i);
  }
  const BitMatrix mask = SweepMask(bits);
  const BitMatrix& cm = m;
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (r + 1 < rows) cm.Row(r + 1).Prefetch();
      total += cm.Row(r).CountAnd(mask.Row(0));
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["words"] = static_cast<double>(BitWords(bits));
  state.SetLabel(bitops::ActiveDispatchName());
}
BENCHMARK(BM_RowSweepBitMatrixPrefetch)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(2048)
    ->Arg(16384)
    ->Arg(65536);

void BM_RowSweepScatteredBitsets(benchmark::State& state) {
  const std::size_t rows = 256;
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(23);
  // Allocate rows one by one with live interleaved padding allocations of
  // random size, so the rows genuinely scatter across the heap instead of
  // landing back-to-back (which would replicate the arena layout and void
  // the comparison).
  std::vector<std::vector<std::uint64_t>> m;
  std::vector<std::vector<std::uint64_t>> padding;
  m.reserve(rows);
  padding.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    m.emplace_back(BitWords(bits), 0);
    padding.emplace_back(1 + rng() % 64, r);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < bits; i += 1 + rng() % 4) {
      m[r][i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  const BitMatrix mask = SweepMask(bits);
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      total += BitSpan(m[r].data(), bits).CountAnd(mask.Row(0));
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["words"] = static_cast<double>(BitWords(bits));
  state.SetLabel(bitops::ActiveDispatchName());
}
BENCHMARK(BM_RowSweepScatteredBitsets)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(2048)
    ->Arg(16384)
    ->Arg(65536);

// ---------------------------------------------------------------------------
// Pre-existing substrate benchmarks.
// ---------------------------------------------------------------------------

void BM_GraphFromEdges(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const BipartiteGraph source = RandomUniform(n, n, 0.05, 1);
  const std::vector<Edge> edges = source.CollectEdges();
  for (auto _ : state) {
    BipartiteGraph g = BipartiteGraph::FromEdges(n, n, edges);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphFromEdges)->Arg(512)->Arg(2048);

void BM_DenseSubgraphBuild(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const BipartiteGraph g = RandomUniform(n, n, 0.5, 2);
  std::vector<VertexId> left(n);
  std::iota(left.begin(), left.end(), 0);
  std::vector<VertexId> right(n);
  std::iota(right.begin(), right.end(), 0);
  for (auto _ : state) {
    DenseSubgraph s = DenseSubgraph::Build(g, left, right);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_DenseSubgraphBuild)->Arg(128)->Arg(512);

void BM_GeneratorUniformDense(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    BipartiteGraph g = RandomUniform(n, n, 0.8, ++seed);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GeneratorUniformDense)->Arg(128)->Arg(512);

void BM_GeneratorChungLu(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    BipartiteGraph g = RandomChungLu(n, n, 4 * n, 2.1, ++seed);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GeneratorChungLu)->Arg(1024)->Arg(8192);

void BM_HasEdge(benchmark::State& state) {
  const BipartiteGraph g = RandomUniform(2048, 2048, 0.01, 3);
  std::uint32_t l = 0;
  std::uint32_t r = 0;
  for (auto _ : state) {
    l = (l + 131) & 2047;
    r = (r + 197) & 2047;
    benchmark::DoNotOptimize(g.HasEdge(l, r));
  }
}
BENCHMARK(BM_HasEdge);

}  // namespace

BENCHMARK_MAIN();
