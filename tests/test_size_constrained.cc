#include "core/size_constrained.h"

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "test_util.h"

namespace mbb {
namespace {

/// Naive feasibility of the (a, b) biclique problem by subset enumeration.
bool NaiveFeasible(const BipartiteGraph& g, std::uint32_t a,
                   std::uint32_t b) {
  const std::uint32_t nl = g.num_left();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << nl); ++mask) {
    std::vector<VertexId> chosen;
    for (std::uint32_t l = 0; l < nl; ++l) {
      if (mask >> l & 1) chosen.push_back(l);
    }
    if (chosen.size() < a) continue;
    std::uint32_t common = 0;
    for (VertexId r = 0; r < g.num_right(); ++r) {
      bool all = true;
      for (const VertexId l : chosen) {
        if (!g.HasEdge(l, r)) {
          all = false;
          break;
        }
      }
      common += all ? 1 : 0;
    }
    if (common >= b) return true;
  }
  return false;
}

TEST(SizeConstrained, TrivialTargets) {
  const BipartiteGraph g = testing::CompleteBipartite(3, 3);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  // (0, 0) is always feasible (the empty biclique).
  EXPECT_TRUE(FindSizeConstrainedBiclique(s, 0, 0).has_value());
  // Targets beyond the side sizes are infeasible.
  EXPECT_FALSE(FindSizeConstrainedBiclique(s, 4, 1).has_value());
  EXPECT_FALSE(FindSizeConstrainedBiclique(s, 1, 4).has_value());
}

TEST(SizeConstrained, CompleteGraphAllTargets) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 5);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  for (std::uint32_t a = 0; a <= 4; ++a) {
    for (std::uint32_t b = 0; b <= 5; ++b) {
      const auto witness = FindSizeConstrainedBiclique(s, a, b);
      ASSERT_TRUE(witness.has_value()) << a << "," << b;
      EXPECT_GE(witness->left.size(), a);
      EXPECT_GE(witness->right.size(), b);
      EXPECT_TRUE(witness->IsBicliqueIn(g));
    }
  }
}

TEST(SizeConstrained, PaperExample) {
  // ({3,4,5},{9,10}) exists: (3,2) is feasible, (3,3) is not.
  const BipartiteGraph g = testing::PaperExampleGraph();
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const auto feasible = FindSizeConstrainedBiclique(s, 3, 2);
  ASSERT_TRUE(feasible.has_value());
  EXPECT_TRUE(feasible->IsBicliqueIn(g));
  EXPECT_FALSE(FindSizeConstrainedBiclique(s, 3, 3).has_value());
}

TEST(SizeConstrained, TimeoutInjection) {
  const BipartiteGraph g = testing::RandomGraph(14, 14, 0.5, 3);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  SearchLimits limits;
  limits.max_recursions = 2;
  StopCause cause = StopCause::kNone;
  const auto result = FindSizeConstrainedBiclique(s, 6, 6, limits, &cause);
  if (cause != StopCause::kNone) {
    EXPECT_EQ(cause, StopCause::kRecursionCap);
    EXPECT_FALSE(result.has_value());
  }
}

class SizeConstrainedRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SizeConstrainedRandomTest, FeasibilityMatchesNaive) {
  const std::uint64_t seed = GetParam();
  const BipartiteGraph g = testing::RandomGraph(
      6, 7, 0.3 + 0.1 * static_cast<double>(seed % 5), seed);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  for (std::uint32_t a = 0; a <= 4; ++a) {
    for (std::uint32_t b = 0; b <= 4; ++b) {
      const auto witness = FindSizeConstrainedBiclique(s, a, b);
      EXPECT_EQ(witness.has_value(), NaiveFeasible(g, a, b))
          << "target (" << a << "," << b << ") seed " << seed;
      if (witness.has_value()) {
        EXPECT_GE(witness->left.size(), a);
        EXPECT_GE(witness->right.size(), b);
        EXPECT_TRUE(witness->IsBicliqueIn(g));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SizeConstrainedRandomTest,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(MaximalBicliqueInstances, PathComplementMatchesObservation2) {
  // Complement of K(2,2) minus one edge = single complement edge = path of
  // length 1: maximal instances (0,2),(1,1)... worked out directly: the
  // graph has edges {00,01,10}; bicliques: ({0},{0,1}) -> (1,2);
  // ({0,1},{0}) -> (2,1).
  const BipartiteGraph g =
      BipartiteGraph::FromEdges(2, 2, {{0, 0}, {0, 1}, {1, 0}});
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const auto instances = MaximalBicliqueInstances(s);
  EXPECT_EQ(instances,
            (std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                {1, 2}, {2, 1}}));
}

TEST(MaximalBicliqueInstances, ParetoAndConsistentWithMbb) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(6, 6, 0.5, seed + 40);
    const DenseSubgraph s = testing::WholeGraphDense(g);
    const auto instances = MaximalBicliqueInstances(s);
    // The balanced optimum is max over instances of min(a, b).
    std::uint32_t best = 0;
    for (const auto& [a, b] : instances) {
      best = std::max(best, std::min(a, b));
    }
    EXPECT_EQ(best, BruteForceMbbSize(g)) << "seed " << seed;
    // Frontier is strictly increasing in a, decreasing in b.
    for (std::size_t i = 1; i < instances.size(); ++i) {
      EXPECT_LT(instances[i - 1].first, instances[i].first);
      EXPECT_GT(instances[i - 1].second, instances[i].second);
    }
  }
}

}  // namespace
}  // namespace mbb
