#include "core/complement_decomposition.h"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace mbb {
namespace {

using testing::FullSet;

/// Brute-force Pareto frontier of independent-set (left, right) sizes of a
/// path/cycle component, by trying all vertex subsets.
std::vector<ParetoPoint> NaiveFrontier(const ComplementComponent& comp) {
  const std::size_t m = comp.vertices.size();
  std::vector<ParetoPoint> achievable;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    bool independent = true;
    for (std::size_t i = 0; i + 1 < m && independent; ++i) {
      if ((mask >> i & 1) && (mask >> (i + 1) & 1)) independent = false;
    }
    if (comp.is_cycle && m > 1 && (mask & 1) && (mask >> (m - 1) & 1)) {
      independent = false;
    }
    if (!independent) continue;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (mask >> i & 1) {
        (comp.vertices[i].side == Side::kLeft ? a : b) += 1;
      }
    }
    achievable.push_back({a, b});
  }
  return ParetoFilter(std::move(achievable));
}

/// Builds a component with the given side pattern ('L'/'R' alternating is
/// not required by the tests, though real components always alternate).
ComplementComponent MakeComponent(const std::string& pattern, bool cycle) {
  ComplementComponent comp;
  comp.is_cycle = cycle;
  VertexId left_id = 0;
  VertexId right_id = 0;
  for (const char c : pattern) {
    if (c == 'L') {
      comp.vertices.push_back({Side::kLeft, left_id++});
    } else {
      comp.vertices.push_back({Side::kRight, right_id++});
    }
  }
  return comp;
}

TEST(ParetoFilter, RemovesDominatedPoints) {
  const std::vector<ParetoPoint> filtered =
      ParetoFilter({{1, 1}, {2, 0}, {0, 2}, {1, 0}, {0, 0}, {2, 0}});
  EXPECT_EQ(filtered,
            (std::vector<ParetoPoint>{{0, 2}, {1, 1}, {2, 0}}));
}

TEST(ParetoFilter, KeepsIncomparablePoints) {
  const std::vector<ParetoPoint> filtered =
      ParetoFilter({{3, 0}, {1, 1}, {0, 3}});
  EXPECT_EQ(filtered,
            (std::vector<ParetoPoint>{{0, 3}, {1, 1}, {3, 0}}));
}

TEST(ComponentFrontier, OddPathMatchesPaper) {
  // Observation 2, odd path of length 3 (paper example Figure 2(a)):
  // maximal instances (0,2), (1,1), (2,0).
  const ComplementComponent comp = MakeComponent("LRLR", false);
  EXPECT_EQ(ComponentFrontier(comp),
            (std::vector<ParetoPoint>{{0, 2}, {1, 1}, {2, 0}}));
}

TEST(ComponentFrontier, FourCycleMatchesPaper) {
  // Observation 2, cycle p = 4: (0, 2) and (2, 0) only.
  const ComplementComponent comp = MakeComponent("LRLR", true);
  EXPECT_EQ(ComponentFrontier(comp),
            (std::vector<ParetoPoint>{{0, 2}, {2, 0}}));
}

TEST(ComponentFrontier, SixCycle) {
  // C6: alpha = 3 per side; (1,1) is achievable and Pareto.
  const ComplementComponent comp = MakeComponent("LRLRLR", true);
  EXPECT_EQ(ComponentFrontier(comp),
            (std::vector<ParetoPoint>{{0, 3}, {1, 1}, {3, 0}}));
}

TEST(ComponentFrontier, SingleEdge) {
  const ComplementComponent comp = MakeComponent("LR", false);
  EXPECT_EQ(ComponentFrontier(comp),
            (std::vector<ParetoPoint>{{0, 1}, {1, 0}}));
}

class FrontierRandomTest
    : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(FrontierRandomTest, MatchesBruteForce) {
  const auto [length, cycle, seed] = GetParam();
  if (cycle && length < 4) return;  // bipartite cycles have length >= 4
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  // Real complement components alternate sides; build alternating pattern
  // with a random starting side (cycles need even length to alternate).
  std::string pattern;
  bool left = rng() & 1;
  for (int i = 0; i < length; ++i) {
    pattern += left ? 'L' : 'R';
    left = !left;
  }
  if (cycle && length % 2 != 0) return;
  const ComplementComponent comp = MakeComponent(pattern, cycle);
  EXPECT_EQ(ComponentFrontier(comp), NaiveFrontier(comp))
      << "pattern " << pattern << " cycle " << cycle;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FrontierRandomTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 7, 8, 10, 12),
                       ::testing::Bool(), ::testing::Values(0, 1)));

class RealizeTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(RealizeTest, EveryFrontierPointIsRealizable) {
  const auto [length, cycle] = GetParam();
  if (cycle && (length < 4 || length % 2 != 0)) return;
  std::string pattern;
  bool left = true;
  for (int i = 0; i < length; ++i) {
    pattern += left ? 'L' : 'R';
    left = !left;
  }
  const ComplementComponent comp = MakeComponent(pattern, cycle);
  for (const ParetoPoint& p : ComponentFrontier(comp)) {
    const std::vector<ComplementVertex> chosen =
        RealizeInstance(comp, p.first, p.second);
    // Count sides.
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    for (const ComplementVertex& v : chosen) {
      (v.side == Side::kLeft ? a : b) += 1;
    }
    EXPECT_GE(a, p.first);
    EXPECT_GE(b, p.second);
    // Verify independence: no two chosen vertices adjacent in the
    // component (consecutive positions, or the cycle closing pair).
    std::set<std::size_t> positions;
    for (const ComplementVertex& v : chosen) {
      const auto it = std::find(comp.vertices.begin(), comp.vertices.end(), v);
      ASSERT_NE(it, comp.vertices.end());
      positions.insert(static_cast<std::size_t>(it - comp.vertices.begin()));
    }
    EXPECT_EQ(positions.size(), chosen.size());
    for (const std::size_t pos : positions) {
      EXPECT_EQ(positions.count(pos + 1), 0u);
    }
    if (cycle && positions.count(0) != 0) {
      EXPECT_EQ(positions.count(comp.vertices.size() - 1), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RealizeTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6, 8, 9, 12),
                       ::testing::Bool()));

TEST(DecomposeComplement, CompleteGraphIsAllTrivial) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 5);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const ComplementDecomposition dec =
      DecomposeComplement(s, FullSet(4).Row(0), FullSet(5).Row(0));
  EXPECT_TRUE(dec.lemma3_satisfied);
  EXPECT_TRUE(dec.components.empty());
  EXPECT_EQ(dec.full_left.size(), 4u);
  EXPECT_EQ(dec.full_right.size(), 5u);
}

TEST(DecomposeComplement, PerfectMatchingComplement) {
  // K(n,n) minus a perfect matching: the complement is the matching — n
  // single-edge path components.
  const std::uint32_t n = 5;
  std::vector<Edge> edges;
  for (VertexId l = 0; l < n; ++l) {
    for (VertexId r = 0; r < n; ++r) {
      if (l != r) edges.emplace_back(l, r);
    }
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(n, n, edges);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const ComplementDecomposition dec =
      DecomposeComplement(s, FullSet(n).Row(0), FullSet(n).Row(0));
  EXPECT_TRUE(dec.lemma3_satisfied);
  EXPECT_EQ(dec.components.size(), n);
  for (const ComplementComponent& comp : dec.components) {
    EXPECT_FALSE(comp.is_cycle);
    EXPECT_EQ(comp.vertices.size(), 2u);
  }
  EXPECT_TRUE(dec.full_left.empty());
}

TEST(DecomposeComplement, CycleComplement) {
  // K(3,3) minus a 6-cycle: complement degrees are exactly 2 everywhere.
  const std::uint32_t n = 3;
  std::vector<Edge> missing = {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 0}};
  std::vector<Edge> edges;
  for (VertexId l = 0; l < n; ++l) {
    for (VertexId r = 0; r < n; ++r) {
      if (std::find(missing.begin(), missing.end(), Edge{l, r}) ==
          missing.end()) {
        edges.emplace_back(l, r);
      }
    }
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(n, n, edges);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const ComplementDecomposition dec =
      DecomposeComplement(s, FullSet(n).Row(0), FullSet(n).Row(0));
  EXPECT_TRUE(dec.lemma3_satisfied);
  ASSERT_EQ(dec.components.size(), 1u);
  EXPECT_TRUE(dec.components[0].is_cycle);
  EXPECT_EQ(dec.components[0].vertices.size(), 6u);
}

TEST(DecomposeComplement, DetectsLemma3Violation) {
  // An empty graph's complement is complete: every vertex misses all of
  // the other side.
  const BipartiteGraph g = BipartiteGraph::FromEdges(4, 4, {{0, 0}});
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const ComplementDecomposition dec =
      DecomposeComplement(s, FullSet(4).Row(0), FullSet(4).Row(0));
  EXPECT_FALSE(dec.lemma3_satisfied);
}

TEST(DecomposeComplement, RespectsCandidateSubsets) {
  // Outside-candidate vertices must not influence the decomposition.
  const BipartiteGraph g = BipartiteGraph::FromEdges(
      3, 3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});  // vertex 2 isolated
  const DenseSubgraph s = testing::WholeGraphDense(g);
  BitMatrix sets(2, 3);
  BitRow ca = sets.Row(0);
  ca.Set(0);
  ca.Set(1);
  BitRow cb = sets.Row(1);
  cb.Set(0);
  cb.Set(1);
  const ComplementDecomposition dec = DecomposeComplement(s, ca, cb);
  EXPECT_TRUE(dec.lemma3_satisfied);
  EXPECT_TRUE(dec.components.empty());
  EXPECT_EQ(dec.full_left.size(), 2u);
  EXPECT_EQ(dec.full_right.size(), 2u);
}

TEST(DecomposeComplement, ComponentsAlternateSides) {
  // Random dense graph conditioned on Lemma 3: K(6,6) minus a random
  // union of at-most-degree-2 structures.
  const std::uint32_t n = 6;
  std::vector<Edge> edges;
  for (VertexId l = 0; l < n; ++l) {
    for (VertexId r = 0; r < n; ++r) {
      // Remove a diagonal band of width 2 -> complement degree <= 2.
      if (r == l || r == (l + 1) % n) continue;
      edges.emplace_back(l, r);
    }
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(n, n, edges);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const ComplementDecomposition dec =
      DecomposeComplement(s, FullSet(n).Row(0), FullSet(n).Row(0));
  ASSERT_TRUE(dec.lemma3_satisfied);
  for (const ComplementComponent& comp : dec.components) {
    for (std::size_t i = 1; i < comp.vertices.size(); ++i) {
      EXPECT_NE(comp.vertices[i].side, comp.vertices[i - 1].side);
    }
  }
}

}  // namespace
}  // namespace mbb
