#include "baselines/fmbe.h"
#include "baselines/imbea.h"

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "test_util.h"

namespace mbb {
namespace {

TEST(Imbea, EmptyAndEdgeless) {
  EXPECT_EQ(ImbeaSolve(BipartiteGraph::FromEdges(0, 0, {})).best
                .BalancedSize(),
            0u);
  EXPECT_EQ(ImbeaSolve(BipartiteGraph::FromEdges(3, 3, {})).best
                .BalancedSize(),
            0u);
}

TEST(Imbea, CompleteBipartite) {
  const BipartiteGraph g = testing::CompleteBipartite(5, 6);
  const MbbResult result = ImbeaSolve(g);
  EXPECT_EQ(result.best.BalancedSize(), 5u);
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
}

TEST(Imbea, PaperExample) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const MbbResult result = ImbeaSolve(g);
  EXPECT_EQ(result.best.BalancedSize(), 2u);
}

TEST(Imbea, InitialBestSuppressesEqual) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 4);
  EXPECT_TRUE(ImbeaSolve(g, {}, 4).best.Empty());
  EXPECT_EQ(ImbeaSolve(g, {}, 3).best.BalancedSize(), 4u);
}

TEST(Imbea, TimeoutInjection) {
  const BipartiteGraph g = testing::RandomGraph(14, 14, 0.5, 1);
  SearchLimits limits;
  limits.max_recursions = 5;
  EXPECT_FALSE(ImbeaSolve(g, limits).exact);
}

TEST(Fmbe, EmptyAndEdgeless) {
  EXPECT_EQ(FmbeSolve(BipartiteGraph::FromEdges(0, 0, {})).best
                .BalancedSize(),
            0u);
  EXPECT_EQ(
      FmbeSolve(BipartiteGraph::FromEdges(3, 3, {})).best.BalancedSize(),
      0u);
}

TEST(Fmbe, CompleteBipartite) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 7);
  const MbbResult result = FmbeSolve(g);
  EXPECT_EQ(result.best.BalancedSize(), 4u);
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
}

TEST(Fmbe, PaperExample) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const MbbResult result = FmbeSolve(g);
  EXPECT_EQ(result.best.BalancedSize(), 2u);
}

TEST(Fmbe, ScopePruningCountsSubgraphs) {
  const BipartiteGraph g = testing::RandomGraph(15, 15, 0.3, 2);
  const MbbResult result = FmbeSolve(g);
  EXPECT_EQ(result.stats.subgraphs_total, g.NumVertices());
  EXPECT_GT(result.stats.subgraphs_pruned_size +
                result.stats.subgraphs_searched,
            0u);
}

TEST(Fmbe, RecursionCapKeepsTheBestScopeAndAccountsForEveryCentre) {
  // An interrupted solve still reports the biclique its scopes found, and
  // every centre lands in exactly one bucket, at any thread count.
  const BipartiteGraph g = testing::RandomGraph(60, 60, 0.3, 3);
  SearchLimits limits;
  limits.max_recursions = 200;
  for (const std::uint32_t threads : {1u, 4u}) {
    const MbbResult result = FmbeSolve(g, limits, 0, threads);
    EXPECT_FALSE(result.exact) << threads;
    EXPECT_EQ(result.stats.stop_cause, StopCause::kRecursionCap) << threads;
    EXPECT_GT(result.best.BalancedSize(), 0u) << threads;
    EXPECT_TRUE(result.best.IsBicliqueIn(g)) << threads;
    EXPECT_EQ(result.stats.subgraphs_total, g.NumVertices()) << threads;
    EXPECT_EQ(result.stats.subgraphs_pruned_size +
                  result.stats.subgraphs_pruned_degeneracy +
                  result.stats.subgraphs_searched +
                  result.stats.subgraphs_skipped,
              result.stats.subgraphs_total)
        << threads;
  }
}

class MbeRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MbeRandomTest, ImbeaMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const BipartiteGraph g = testing::RandomGraph(
      5 + seed % 8, 5 + (seed * 7) % 8,
      0.2 + 0.1 * static_cast<double>(seed % 6), seed + 60);
  const MbbResult result = ImbeaSolve(g);
  EXPECT_EQ(result.best.BalancedSize(), BruteForceMbbSize(g));
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
}

TEST_P(MbeRandomTest, FmbeMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const BipartiteGraph g = testing::RandomGraph(
      5 + seed % 8, 5 + (seed * 7) % 8,
      0.2 + 0.1 * static_cast<double>(seed % 6), seed + 60);
  const MbbResult result = FmbeSolve(g);
  EXPECT_EQ(result.best.BalancedSize(), BruteForceMbbSize(g));
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbeRandomTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace mbb
