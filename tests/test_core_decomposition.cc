#include "order/core_decomposition.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace mbb {
namespace {

/// Naive reference: for each k, repeatedly strip vertices of degree < k;
/// core(v) = largest k whose k-core still contains v.
std::vector<std::uint32_t> NaiveCores(const BipartiteGraph& g) {
  const std::uint32_t n = g.NumVertices();
  std::vector<std::uint32_t> core(n, 0);
  for (std::uint32_t k = 1; k <= n; ++k) {
    std::vector<bool> alive(n, true);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (!alive[v]) continue;
        std::uint32_t deg = 0;
        const Side side = g.SideOf(v);
        for (const VertexId w : g.Neighbors(side, g.LocalId(v))) {
          deg += alive[g.GlobalIndex(Opposite(side), w)] ? 1 : 0;
        }
        if (deg < k) {
          alive[v] = false;
          changed = true;
        }
      }
    }
    bool any = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (alive[v]) {
        core[v] = k;
        any = true;
      }
    }
    if (!any) break;
  }
  return core;
}

TEST(CoreDecomposition, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(0, 0, {});
  const CoreDecomposition d = ComputeCores(g);
  EXPECT_EQ(d.degeneracy, 0u);
  EXPECT_TRUE(d.order.empty());
}

TEST(CoreDecomposition, SingleEdge) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(1, 1, {{0, 0}});
  const CoreDecomposition d = ComputeCores(g);
  EXPECT_EQ(d.degeneracy, 1u);
  EXPECT_EQ(d.core[0], 1u);
  EXPECT_EQ(d.core[1], 1u);
}

TEST(CoreDecomposition, StarHasCoreOne) {
  // One left hub connected to 5 right leaves.
  std::vector<Edge> edges;
  for (VertexId r = 0; r < 5; ++r) edges.emplace_back(0, r);
  const BipartiteGraph g = BipartiteGraph::FromEdges(1, 5, edges);
  const CoreDecomposition d = ComputeCores(g);
  EXPECT_EQ(d.degeneracy, 1u);
  for (std::uint32_t v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(d.core[v], 1u);
  }
}

TEST(CoreDecomposition, CompleteBipartiteCore) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 7);
  const CoreDecomposition d = ComputeCores(g);
  EXPECT_EQ(d.degeneracy, 4u);  // limited by the smaller side
  for (std::uint32_t v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(d.core[v], 4u);
  }
}

TEST(CoreDecomposition, PaperExampleMatchesTable2) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const CoreDecomposition d = ComputeCores(g);
  // Table 2, paper vertices 1..6 (left) then 7..12 (right).
  const std::vector<std::uint32_t> expected = {1, 1, 2, 2, 2, 1,
                                               1, 1, 2, 2, 1, 1};
  EXPECT_EQ(d.core, expected);
  EXPECT_EQ(d.degeneracy, 2u);
}

TEST(CoreDecomposition, OrderIsPermutation) {
  const BipartiteGraph g = testing::RandomGraph(30, 25, 0.15, 4);
  const CoreDecomposition d = ComputeCores(g);
  std::vector<std::uint32_t> sorted = d.order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < g.NumVertices(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(CoreDecomposition, DegeneracyOrderProperty) {
  // In the peeling order every vertex has at most `degeneracy` neighbours
  // appearing later.
  const BipartiteGraph g = testing::RandomGraph(40, 40, 0.2, 8);
  const CoreDecomposition d = ComputeCores(g);
  std::vector<std::uint32_t> rank(g.NumVertices());
  for (std::uint32_t i = 0; i < d.order.size(); ++i) rank[d.order[i]] = i;
  for (std::uint32_t v = 0; v < g.NumVertices(); ++v) {
    std::uint32_t later = 0;
    const Side side = g.SideOf(v);
    for (const VertexId w : g.Neighbors(side, g.LocalId(v))) {
      later += rank[g.GlobalIndex(Opposite(side), w)] > rank[v] ? 1 : 0;
    }
    EXPECT_LE(later, d.degeneracy);
  }
}

TEST(CoreDecomposition, KCoreHasMinDegreeK) {
  const BipartiteGraph g = testing::RandomGraph(50, 50, 0.15, 5);
  const CoreDecomposition d = ComputeCores(g);
  for (std::uint32_t k = 1; k <= d.degeneracy; ++k) {
    const KCoreVertices kept = KCore(d, g, k);
    const InducedSubgraph sub = g.Induce(kept.left, kept.right);
    for (VertexId l = 0; l < sub.graph.num_left(); ++l) {
      EXPECT_GE(sub.graph.Degree(Side::kLeft, l), k);
    }
    for (VertexId r = 0; r < sub.graph.num_right(); ++r) {
      EXPECT_GE(sub.graph.Degree(Side::kRight, r), k);
    }
  }
}

TEST(CoreDecomposition, KCoreAboveDegeneracyIsEmpty) {
  const BipartiteGraph g = testing::RandomGraph(30, 30, 0.2, 6);
  const CoreDecomposition d = ComputeCores(g);
  const KCoreVertices kept = KCore(d, g, d.degeneracy + 1);
  EXPECT_TRUE(kept.left.empty());
  EXPECT_TRUE(kept.right.empty());
}

class CoreRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoreRandomTest, MatchesNaiveReference) {
  const std::uint64_t seed = GetParam();
  const BipartiteGraph g =
      testing::RandomGraph(10 + seed % 20, 12 + seed % 15,
                           0.1 + 0.05 * static_cast<double>(seed % 8), seed);
  const CoreDecomposition fast = ComputeCores(g);
  const std::vector<std::uint32_t> naive = NaiveCores(g);
  EXPECT_EQ(fast.core, naive);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreRandomTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace mbb
