#include "order/bicore_decomposition.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "order/core_decomposition.h"
#include "test_util.h"

namespace mbb {
namespace {

/// Naive |N≤2| over an aliveness mask.
std::uint32_t NaiveN2Size(const BipartiteGraph& g, std::uint32_t u,
                          const std::vector<bool>& alive) {
  std::vector<bool> seen(g.NumVertices(), false);
  seen[u] = true;
  std::uint32_t count = 0;
  const Side side = g.SideOf(u);
  for (const VertexId v_local : g.Neighbors(side, g.LocalId(u))) {
    const std::uint32_t v = g.GlobalIndex(Opposite(side), v_local);
    if (!alive[v]) continue;
    if (!seen[v]) {
      seen[v] = true;
      ++count;
    }
    for (const VertexId w_local : g.Neighbors(Opposite(side), v_local)) {
      const std::uint32_t w = g.GlobalIndex(side, w_local);
      if (!alive[w] || seen[w]) continue;
      seen[w] = true;
      ++count;
    }
  }
  return count;
}

/// Naive peeling with exact recomputation and the same (|N≤2|, degree, id)
/// tie-breaking as Algorithm 7.
struct NaiveBicore {
  std::vector<std::uint32_t> bicore;
  std::vector<std::uint32_t> order;
  std::uint32_t bidegeneracy = 0;
};

NaiveBicore NaiveBicoreDecomposition(const BipartiteGraph& g) {
  const std::uint32_t n = g.NumVertices();
  NaiveBicore out;
  out.bicore.assign(n, 0);
  std::vector<bool> alive(n, true);
  std::uint32_t running = 0;
  for (std::uint32_t step = 0; step < n; ++step) {
    std::uint32_t best = ~std::uint32_t{0};
    std::uint32_t best_value = 0;
    std::uint32_t best_degree = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const std::uint32_t value = NaiveN2Size(g, v, alive);
      std::uint32_t degree = 0;
      const Side side = g.SideOf(v);
      for (const VertexId w : g.Neighbors(side, g.LocalId(v))) {
        degree += alive[g.GlobalIndex(Opposite(side), w)] ? 1 : 0;
      }
      if (best == ~std::uint32_t{0} || value < best_value ||
          (value == best_value && degree < best_degree)) {
        best = v;
        best_value = value;
        best_degree = degree;
      }
    }
    running = std::max(running, best_value);
    out.bicore[best] = running;
    out.order.push_back(best);
    alive[best] = false;
  }
  out.bidegeneracy = running;
  return out;
}

/// Algorithm 7's unit-decrement peel with a `std::set` priority queue on
/// the same (|N≤2|, residual degree, id) key: the reference the indexed
/// heap of `ComputeBicores` must reproduce, order and values alike.
NaiveBicore SetQueueBicoreDecomposition(const BipartiteGraph& g) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  const std::uint32_t n = g.NumVertices();
  NaiveBicore out;
  out.bicore.assign(n, 0);
  std::vector<std::uint32_t> value = ComputeN2Sizes(g);
  std::vector<std::uint32_t> degree(n);
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const Side side = g.SideOf(v);
    for (const VertexId w : g.Neighbors(side, g.LocalId(v))) {
      adj[v].push_back(g.GlobalIndex(Opposite(side), w));
    }
    degree[v] = static_cast<std::uint32_t>(adj[v].size());
  }
  std::set<Key> queue;
  for (std::uint32_t v = 0; v < n; ++v) queue.insert({value[v], degree[v], v});
  std::vector<bool> alive(n, true);
  std::vector<std::uint32_t> stamp(n, ~std::uint32_t{0});
  std::uint32_t running = 0;
  while (!queue.empty()) {
    const std::uint32_t u = std::get<2>(*queue.begin());
    queue.erase(queue.begin());
    alive[u] = false;
    running = std::max(running, value[u]);
    out.bicore[u] = running;
    out.order.push_back(u);
    stamp[u] = u;
    // One unit off |N≤2(v)| per residual v ∈ N≤2(u), one off the degree
    // of each residual neighbour of u.
    const auto touch = [&](std::uint32_t v) {
      if (!alive[v] || stamp[v] == u) return;
      stamp[v] = u;
      queue.erase({value[v], degree[v], v});
      if (value[v] > 0) --value[v];
      queue.insert({value[v], degree[v], v});
    };
    for (const std::uint32_t v : adj[u]) {
      if (!alive[v]) continue;
      queue.erase({value[v], degree[v], v});
      --degree[v];
      queue.insert({value[v], degree[v], v});
    }
    for (const std::uint32_t v : adj[u]) {
      if (!alive[v]) continue;
      touch(v);
      for (const std::uint32_t w : adj[v]) touch(w);
    }
  }
  out.bidegeneracy = running;
  return out;
}

TEST(BicoreDecomposition, N2SizesPaperExample) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const std::vector<std::uint32_t> sizes = ComputeN2Sizes(g);
  // Paper: N≤2(2) = {1, 3, 6, 7, 8} -> 5 entries for paper vertex 2 (id 1).
  EXPECT_EQ(sizes[1], 5u);
  // Paper vertex 1 (id 0): N(1)={7}, N2(1)={2} -> 2.
  EXPECT_EQ(sizes[0], 2u);
  // Paper vertex 11 (right id 4, global 6+4): N={6}, N2={8,12} -> 3.
  EXPECT_EQ(sizes[g.GlobalIndex(Side::kRight, 4)], 3u);
}

TEST(BicoreDecomposition, N2SizesMatchNaive) {
  const BipartiteGraph g = testing::RandomGraph(25, 20, 0.15, 3);
  const std::vector<std::uint32_t> sizes = ComputeN2Sizes(g);
  const std::vector<bool> alive(g.NumVertices(), true);
  for (std::uint32_t v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(sizes[v], NaiveN2Size(g, v, alive)) << "vertex " << v;
  }
}

TEST(BicoreDecomposition, PaperExampleMatchesTable2) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const BicoreDecomposition d = ComputeBicores(g);
  // Table 2 bc(.) for paper vertices 1..6 then 7..12.
  const std::vector<std::uint32_t> expected = {2, 3, 4, 4, 4, 3,
                                               2, 3, 4, 4, 3, 3};
  EXPECT_EQ(d.bicore, expected);
  EXPECT_EQ(d.bidegeneracy, 4u);
}

TEST(BicoreDecomposition, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(0, 0, {});
  const BicoreDecomposition d = ComputeBicores(g);
  EXPECT_EQ(d.bidegeneracy, 0u);
  EXPECT_TRUE(d.order.empty());
}

TEST(BicoreDecomposition, OrderIsPermutation) {
  const BipartiteGraph g = testing::RandomGraph(22, 18, 0.2, 5);
  const BicoreDecomposition d = ComputeBicores(g);
  std::vector<std::uint32_t> sorted = d.order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < g.NumVertices(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(BicoreDecomposition, BidegeneracyAtLeastDegeneracy) {
  // The δ-core has min degree δ, so min |N≤2| >= δ inside it; peeling must
  // therefore reach a value of at least δ.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(30, 30, 0.2, 100 + seed);
    EXPECT_GE(ComputeBicores(g).bidegeneracy, ComputeCores(g).degeneracy);
  }
}

TEST(BicoreDecomposition, BidegeneracyOrderBoundsLaterN2) {
  // Definition 5: along the order, each vertex's |N≤2| within the suffix
  // is at most δ̈ (this is what bounds vertex-centred subgraph sizes).
  const BipartiteGraph g = testing::RandomGraph(30, 25, 0.18, 7);
  const BicoreDecomposition d = ComputeBicores(g);
  std::vector<bool> alive(g.NumVertices(), true);
  for (const std::uint32_t v : d.order) {
    EXPECT_LE(NaiveN2Size(g, v, alive), d.bidegeneracy);
    alive[v] = false;
  }
}

TEST(BicoreDecomposition, IndexedHeapMatchesSetQueueOnReuters) {
  const BipartiteGraph g = GenerateSurrogate(*FindDataset("reuters"), 0.1);
  const BicoreDecomposition d = ComputeBicores(g);
  const NaiveBicore reference = SetQueueBicoreDecomposition(g);
  // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print all 106k ids.
  EXPECT_TRUE(d.order == reference.order);
  EXPECT_TRUE(d.bicore == reference.bicore);
  EXPECT_EQ(d.bidegeneracy, reference.bidegeneracy);
}

BipartiteGraph SeededRandom(std::uint64_t seed) {
  return testing::RandomGraph(8 + seed % 10, 8 + (seed * 3) % 10,
                              0.1 + 0.06 * static_cast<double>(seed % 6),
                              seed);
}

TEST(BicoreDecomposition, UnitDecrementIsNotTight) {
  // Lemma 10 claims the unit decrement is exact. It is not: on some small
  // randoms the unit-decrement bidegeneracy exceeds the naive exact peel's.
  bool strict = false;
  for (std::uint64_t seed = 0; seed < 20 && !strict; ++seed) {
    const BipartiteGraph g = SeededRandom(seed);
    strict = ComputeBicores(g).bidegeneracy >
             NaiveBicoreDecomposition(g).bidegeneracy;
  }
  EXPECT_TRUE(strict);
}

class BicoreRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BicoreRandomTest, IndexedHeapMatchesSetQueue) {
  const std::uint64_t seed = GetParam();
  for (const BipartiteGraph& g :
       {SeededRandom(seed),
        testing::RandomGraph(40 + seed, 30 + 2 * seed,
                             0.03 + 0.01 * static_cast<double>(seed % 8),
                             1000 + seed),
        RandomChungLu(60, 50, 240, 2.1, seed)}) {
    const BicoreDecomposition d = ComputeBicores(g);
    const NaiveBicore reference = SetQueueBicoreDecomposition(g);
    EXPECT_EQ(d.order, reference.order);
    EXPECT_EQ(d.bicore, reference.bicore);
    EXPECT_EQ(d.bidegeneracy, reference.bidegeneracy);
  }
}

TEST_P(BicoreRandomTest, UnitDecrementNeverFallsBelowExact) {
  // The paper's Lemma 10 unit-decrement schedule (Algorithm 7) can only
  // under-decrement, so its bidegeneracy upper-bounds that of the naive
  // peel, which recomputes |N≤2| exactly (UnitDecrementIsNotTight shows an
  // input where the bound is strict).
  const BipartiteGraph g = SeededRandom(GetParam());
  EXPECT_GE(ComputeBicores(g).bidegeneracy,
            NaiveBicoreDecomposition(g).bidegeneracy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BicoreRandomTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace mbb
