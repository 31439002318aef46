#include "core/size_constrained.h"

#include <algorithm>
#include <cstdint>
#include <vector>

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
  SearchStats stats;
  const auto result = FindSizeConstrainedBiclique(s, 6, 6, limits, &stats);
  if (stats.stop_cause != StopCause::kNone) {
    EXPECT_EQ(stats.stop_cause, StopCause::kRecursionCap);
    EXPECT_TRUE(stats.timed_out);
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

/// Dense inputs with targets around the optimum, balanced and asymmetric:
/// the regime where the König bound cuts, so the oracle checks its cuts
/// too. Near-complete graphs are settled by the reductions alone, so the
/// bound is required to fire somewhere in the sweep, not on every graph.
TEST(SizeConstrainedDenseOracle, TargetsNearTheOptimumMatchNaive) {
  std::uint64_t matching_prunes = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const std::uint32_t nl = 10 + static_cast<std::uint32_t>(seed % 3);
    const std::uint32_t nr = 10 + static_cast<std::uint32_t>(seed * 2 % 3);
    const double density = 0.7 + 0.05 * static_cast<double>(seed % 6);
    const BipartiteGraph g = testing::RandomGraph(nl, nr, density, seed + 90);
    const DenseSubgraph s = testing::WholeGraphDense(g);
    const std::uint32_t opt = BruteForceMbbSize(g);
    for (std::uint32_t a = opt > 3 ? opt - 3 : 0; a <= opt + 3; ++a) {
      for (std::uint32_t b = opt > 3 ? opt - 3 : 0; b <= opt + 3; ++b) {
        SearchStats stats;
        const auto witness = FindSizeConstrainedBiclique(s, a, b, {}, &stats);
        matching_prunes += stats.matching_prunes;
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
  EXPECT_GT(matching_prunes, 0u);
}

/// Search pins: the witness each fixed (a, b) query returns and the number
/// of recursions it takes, which the recursion cap confirms (the search
/// stops at a cap one below the count and completes at the count). Any
/// change to the branch rule, its tie order included, to the reductions or
/// to the bounds moves them. A sound new bound may only lower the counts:
/// it cuts subtrees without a hit, so the first hit stays the same.
struct PinnedQuery {
  std::uint32_t num_left;
  std::uint32_t num_right;
  double density;
  std::uint64_t seed;
  std::uint32_t a;
  std::uint32_t b;
  std::uint64_t recursions;
  std::vector<VertexId> left;  // empty for an infeasible target
  std::vector<VertexId> right;
};

TEST(SizeConstrainedPins, WitnessesAndRecursionsAreUnchanged) {
  const PinnedQuery queries[] = {
    {40, 40, 0.5, 1, 7, 7, 243,
     {0, 4, 12, 27, 33, 37, 39},
     {1, 10, 18, 27, 33, 37, 39}},
    {40, 40, 0.5, 1, 10, 4, 37,
     {0, 4, 9, 10, 14, 17, 21, 24, 29, 37, 39},
     {10, 18, 25, 34}},
    {40, 40, 0.5, 1, 8, 8, 219, {}, {}},
    {48, 44, 0.7, 2, 12, 8, 597,
     {0, 2, 5, 6, 9, 18, 19, 24, 41, 43, 44, 46},
     {6, 13, 14, 17, 29, 30, 33, 36}},
    {48, 44, 0.7, 2, 11, 11, 12393, {}, {}},
    {56, 60, 0.85, 10, 19, 19, 2440,
     {3, 4, 6, 9, 11, 15, 16, 21, 22, 28, 29, 32, 36, 40, 41, 44, 46, 48, 49},
     {6, 7, 8, 10, 12, 15, 23, 31, 34, 39, 41, 42, 43, 45, 46, 48, 50, 55, 59}},
    {56, 60, 0.85, 10, 25, 12, 523,
     {3, 4, 6, 9, 10, 11, 15, 16, 18, 19, 21, 22, 28, 29, 32, 36, 38, 40, 41,
      44, 46, 48, 49, 50, 52},
     {7, 8, 10, 23, 31, 34, 39, 42, 45, 48, 55, 59}},
    // At the optimum (28) of a dense graph: the König bound answers these
    // in tens of milliseconds.
    {64, 64, 0.92, 8, 27, 27, 35226,
     {0, 4, 7, 8, 9, 12, 13, 14, 16, 17, 19, 21, 23, 27, 28, 29, 30, 37, 38,
      39, 40, 43, 44, 54, 55, 56, 62},
     {0, 5, 7, 8, 10, 15, 20, 26, 28, 29, 30, 31, 32, 34, 36, 38, 41, 46, 47,
      49, 50, 53, 54, 55, 60, 61, 63}},
    {64, 64, 0.92, 8, 28, 28, 15013,
     {0, 6, 7, 9, 10, 12, 13, 16, 17, 19, 21, 23, 24, 28, 29, 30, 32, 35, 36,
      39, 40, 44, 45, 49, 53, 54, 56, 62},
     {0, 2, 4, 5, 7, 9, 10, 15, 16, 18, 23, 26, 27, 31, 32, 35, 40, 41, 43,
      46, 49, 50, 53, 54, 57, 60, 61, 63}},
    {64, 64, 0.92, 8, 29, 29, 13323, {}, {}},
  };
  for (const PinnedQuery& pin : queries) {
    const BipartiteGraph g = testing::RandomGraph(
        pin.num_left, pin.num_right, pin.density, pin.seed);
    const DenseSubgraph s = testing::WholeGraphDense(g);
    SCOPED_TRACE(::testing::Message()
                 << pin.num_left << "x" << pin.num_right << " d"
                 << pin.density << " seed " << pin.seed << " target ("
                 << pin.a << "," << pin.b << ")");
    const auto witness = FindSizeConstrainedBiclique(s, pin.a, pin.b);
    ASSERT_EQ(witness.has_value(), !pin.left.empty());
    if (witness.has_value()) {
      std::vector<VertexId> left = witness->left;
      std::vector<VertexId> right = witness->right;
      std::sort(left.begin(), left.end());
      std::sort(right.begin(), right.end());
      EXPECT_EQ(left, pin.left);
      EXPECT_EQ(right, pin.right);
    }
    SearchLimits limits;
    SearchStats stats;
    limits.max_recursions = pin.recursions;
    FindSizeConstrainedBiclique(s, pin.a, pin.b, limits, &stats);
    EXPECT_EQ(stats.stop_cause, StopCause::kNone);
    EXPECT_EQ(stats.recursions, pin.recursions);
    limits.max_recursions = pin.recursions - 1;
    FindSizeConstrainedBiclique(s, pin.a, pin.b, limits, &stats);
    EXPECT_EQ(stats.stop_cause, StopCause::kRecursionCap);
  }
}

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
