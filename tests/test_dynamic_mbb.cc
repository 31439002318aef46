#include "core/dynamic_mbb.h"

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "test_util.h"

namespace mbb {
namespace {

using testing::FullSet;

/// K(n,n) minus a random sub-permutation-ish structure with at most 2
/// missing edges per vertex — i.e. a random Lemma-3 instance. The
/// complement is a random graph of maximum degree 2 on both sides (a
/// disjoint union of paths and cycles).
BipartiteGraph RandomLemma3Instance(std::uint32_t nl, std::uint32_t nr,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> missing_left(nl, 0);
  std::vector<std::uint32_t> missing_right(nr, 0);
  std::vector<std::vector<bool>> removed(nl, std::vector<bool>(nr, false));
  const std::uint32_t attempts = (nl + nr) * 2;
  for (std::uint32_t t = 0; t < attempts; ++t) {
    const VertexId l = static_cast<VertexId>(rng() % nl);
    const VertexId r = static_cast<VertexId>(rng() % nr);
    if (removed[l][r] || missing_left[l] >= 2 || missing_right[r] >= 2) {
      continue;
    }
    removed[l][r] = true;
    ++missing_left[l];
    ++missing_right[r];
  }
  std::vector<Edge> edges;
  for (VertexId l = 0; l < nl; ++l) {
    for (VertexId r = 0; r < nr; ++r) {
      if (!removed[l][r]) edges.emplace_back(l, r);
    }
  }
  return BipartiteGraph::FromEdges(nl, nr, edges);
}

TEST(DynamicMbb, CompleteGraphTrivialPart) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 6);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  bool polynomial = false;
  const DynamicMbbOutcome outcome = TryDynamicMbb(
      s, {}, {}, FullSet(4).Row(0), FullSet(6).Row(0), 0, &polynomial);
  EXPECT_TRUE(polynomial);
  ASSERT_TRUE(outcome.improved);
  EXPECT_EQ(outcome.best.BalancedSize(), 4u);
  EXPECT_TRUE(outcome.best.IsBalanced());
  EXPECT_TRUE(s.ToOriginal(outcome.best).IsBicliqueIn(g));
}

TEST(DynamicMbb, RejectsNonPolynomialInstance) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(4, 4, {{0, 0}});
  const DenseSubgraph s = testing::WholeGraphDense(g);
  bool polynomial = true;
  const DynamicMbbOutcome outcome = TryDynamicMbb(
      s, {}, {}, FullSet(4).Row(0), FullSet(4).Row(0), 0, &polynomial);
  EXPECT_FALSE(polynomial);
  EXPECT_FALSE(outcome.improved);
}

TEST(DynamicMbb, MatchingComplement) {
  // K(5,5) minus a perfect matching: the MBB has side size 4 (pick 4 and
  // 4 avoiding matched pairs... actually any 4+4 of distinct pairs works).
  const std::uint32_t n = 5;
  std::vector<Edge> edges;
  for (VertexId l = 0; l < n; ++l) {
    for (VertexId r = 0; r < n; ++r) {
      if (l != r) edges.emplace_back(l, r);
    }
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(n, n, edges);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const std::uint32_t expected = BruteForceMbbSize(g);
  bool polynomial = false;
  const DynamicMbbOutcome outcome = TryDynamicMbb(
      s, {}, {}, FullSet(n).Row(0), FullSet(n).Row(0), 0, &polynomial);
  EXPECT_TRUE(polynomial);
  ASSERT_TRUE(outcome.improved);
  EXPECT_EQ(outcome.best.BalancedSize(), expected);
  EXPECT_TRUE(s.ToOriginal(outcome.best).IsBicliqueIn(g));
}

TEST(DynamicMbb, RespectsLowerBound) {
  const BipartiteGraph g = testing::CompleteBipartite(3, 3);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const DynamicMbbOutcome at_bound = TryDynamicMbb(
      s, {}, {}, FullSet(3).Row(0), FullSet(3).Row(0), 3, nullptr);
  EXPECT_FALSE(at_bound.improved);
  const DynamicMbbOutcome below_bound = TryDynamicMbb(
      s, {}, {}, FullSet(3).Row(0), FullSet(3).Row(0), 2, nullptr);
  EXPECT_TRUE(below_bound.improved);
}

TEST(DynamicMbb, IncludesPartialResult) {
  // Fix one left vertex into A; candidates are the rest of a complete
  // graph. The solver must extend around the partial sets.
  const BipartiteGraph g = testing::CompleteBipartite(4, 4);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  BitMatrix arena(1, 4);
  BitRow ca = arena.Row(0);
  ca.Set(1);
  ca.Set(2);
  ca.Set(3);
  const std::vector<VertexId> partial_a = {0};
  bool polynomial = false;
  const DynamicMbbOutcome outcome = TryDynamicMbb(
      s, partial_a, {}, ca, FullSet(4).Row(0), 0, &polynomial);
  EXPECT_TRUE(polynomial);
  ASSERT_TRUE(outcome.improved);
  EXPECT_EQ(outcome.best.BalancedSize(), 4u);
  // The partial vertex must appear in the result.
  EXPECT_TRUE(std::find(outcome.best.left.begin(), outcome.best.left.end(),
                        0u) != outcome.best.left.end());
}

class DynamicMbbRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DynamicMbbRandomTest, MatchesBruteForceOnLemma3Instances) {
  const std::uint64_t seed = GetParam();
  const std::uint32_t nl = 4 + seed % 8;
  const std::uint32_t nr = 4 + (seed * 7) % 8;
  const BipartiteGraph g = RandomLemma3Instance(nl, nr, seed);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const std::uint32_t expected = BruteForceMbbSize(g);

  bool polynomial = false;
  const DynamicMbbOutcome outcome = TryDynamicMbb(
      s, {}, {}, FullSet(nl).Row(0), FullSet(nr).Row(0), 0, &polynomial);
  ASSERT_TRUE(polynomial);
  ASSERT_TRUE(outcome.improved);
  EXPECT_EQ(outcome.best.BalancedSize(), expected);
  EXPECT_TRUE(outcome.best.IsBalanced());
  EXPECT_TRUE(s.ToOriginal(outcome.best).IsBicliqueIn(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicMbbRandomTest,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace mbb
