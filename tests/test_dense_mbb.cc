#include "core/dense_mbb.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/basic_bb.h"
#include "test_util.h"

namespace mbb {
namespace {

TEST(DenseMbb, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(0, 0, {});
  const MbbResult result = DenseMbbSolve(testing::WholeGraphDense(g));
  EXPECT_EQ(result.best.BalancedSize(), 0u);
  EXPECT_TRUE(result.exact);
}

TEST(DenseMbb, EdgelessGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(5, 5, {});
  const MbbResult result = DenseMbbSolve(testing::WholeGraphDense(g));
  EXPECT_EQ(result.best.BalancedSize(), 0u);
}

TEST(DenseMbb, CompleteGraphSolvedPolynomially) {
  const BipartiteGraph g = testing::CompleteBipartite(6, 8);
  const MbbResult result = DenseMbbSolve(testing::WholeGraphDense(g));
  EXPECT_EQ(result.best.BalancedSize(), 6u);
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
  // A complete graph reduces entirely via Lemma 1 promotions; no branching.
  EXPECT_EQ(result.stats.recursions, 1u);
}

TEST(DenseMbb, PaperExample) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const MbbResult result = DenseMbbSolve(testing::WholeGraphDense(g));
  EXPECT_EQ(result.best.BalancedSize(), 2u);
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
}

TEST(DenseMbb, DensePolyCaseDispatch) {
  // 90%-dense instances mostly dispatch to Algorithm 2 quickly.
  const BipartiteGraph g = testing::RandomGraph(18, 18, 0.9, 17);
  const MbbResult result = DenseMbbSolve(testing::WholeGraphDense(g));
  EXPECT_TRUE(result.exact);
  EXPECT_GT(result.stats.poly_cases + result.stats.reduction_promoted, 0u);
  EXPECT_EQ(result.best.BalancedSize(), BruteForceMbbSize(g));
}

TEST(DenseMbb, InitialBestSemantics) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 4);
  const MbbResult at_optimum =
      DenseMbbSolve(testing::WholeGraphDense(g), {}, 4);
  EXPECT_TRUE(at_optimum.best.Empty());
  const MbbResult below =
      DenseMbbSolve(testing::WholeGraphDense(g), {}, 3);
  EXPECT_EQ(below.best.BalancedSize(), 4u);
}

TEST(DenseMbb, AnchoredContainsAnchor) {
  const BipartiteGraph g = testing::RandomGraph(9, 9, 0.55, 21);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  for (VertexId anchor = 0; anchor < g.num_left(); ++anchor) {
    const MbbResult result = DenseMbbSolveAnchored(s, anchor);
    if (result.best.Empty()) continue;
    EXPECT_TRUE(std::find(result.best.left.begin(), result.best.left.end(),
                          anchor) != result.best.left.end());
    EXPECT_TRUE(result.best.IsBicliqueIn(g));
  }
}

TEST(DenseMbb, AnchoredBestOverAnchorsEqualsGlobal) {
  const BipartiteGraph g = testing::RandomGraph(9, 8, 0.5, 22);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const std::uint32_t global = DenseMbbSolve(s).best.BalancedSize();
  std::uint32_t best = 0;
  for (VertexId anchor = 0; anchor < g.num_left(); ++anchor) {
    best = std::max(best,
                    DenseMbbSolveAnchored(s, anchor).best.BalancedSize());
  }
  EXPECT_EQ(best, global);
}

TEST(DenseMbb, RecursionLimitInjectsFailure) {
  const BipartiteGraph g = testing::RandomGraph(14, 14, 0.5, 23);
  DenseMbbOptions options;
  options.limits.max_recursions = 3;
  const MbbResult result =
      DenseMbbSolve(testing::WholeGraphDense(g), options);
  EXPECT_FALSE(result.exact);
}

TEST(DenseMbb, ExpiredDeadlineAborts) {
  const BipartiteGraph g = testing::RandomGraph(14, 14, 0.5, 24);
  DenseMbbOptions options;
  options.limits = SearchLimits::FromSeconds(-1.0);
  const MbbResult result =
      DenseMbbSolve(testing::WholeGraphDense(g), options);
  EXPECT_FALSE(result.exact);
}

/// All four ablation configurations must stay exact — the switches trade
/// speed, never correctness.
struct AblationCase {
  bool reductions;
  bool poly;
  bool branching;
  bool matching;
};

class DenseMbbAblationTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DenseMbbAblationTest, ExactUnderAllSwitches) {
  const auto [config, seed] = GetParam();
  const AblationCase cases[] = {
      {true, true, true, true},
      {false, true, true, true},
      {true, false, true, true},
      {true, true, false, true},
      {true, true, true, false},
      {false, false, false, false},
      // Missing-count branching with nothing else: every kept candidate can
      // miss nothing, and the first of them must still be the branch.
      {false, false, true, true},
  };
  const AblationCase& c = cases[config];
  DenseMbbOptions options;
  options.use_reductions = c.reductions;
  options.use_poly_case = c.poly;
  options.use_missing_branching = c.branching;
  options.use_matching_bound = c.matching;

  const std::uint32_t nl = 5 + seed % 6;
  const std::uint32_t nr = 5 + (seed * 3) % 6;
  const double density = 0.3 + 0.12 * static_cast<double>(seed % 5);
  const BipartiteGraph g = testing::RandomGraph(nl, nr, density, seed + 500);
  const MbbResult result =
      DenseMbbSolve(testing::WholeGraphDense(g), options);
  EXPECT_EQ(result.best.BalancedSize(), BruteForceMbbSize(g));
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DenseMbbAblationTest,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Range<std::uint64_t>(0, 8)));

/// The main exactness sweep, including the paper's dense densities.
class DenseMbbRandomTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(DenseMbbRandomTest, MatchesBruteForce) {
  const auto [density, seed] = GetParam();
  const std::uint32_t nl = 6 + seed % 8;
  const std::uint32_t nr = 6 + (seed * 5) % 8;
  const BipartiteGraph g = testing::RandomGraph(nl, nr, density, seed);
  const MbbResult result = DenseMbbSolve(testing::WholeGraphDense(g));
  EXPECT_EQ(result.best.BalancedSize(), BruteForceMbbSize(g))
      << "nl=" << nl << " nr=" << nr << " density=" << density;
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
  EXPECT_TRUE(result.best.IsBalanced());
}

INSTANTIATE_TEST_SUITE_P(
    DensityGrid, DenseMbbRandomTest,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95),
                       ::testing::Range<std::uint64_t>(0, 10)));

TEST(DenseMbb, LargerDenseInstanceAgainstBasicBb) {
  // Beyond brute-force comfort: cross-check the two exact searchers.
  const BipartiteGraph g = testing::RandomGraph(24, 24, 0.85, 77);
  const DenseSubgraph s = testing::WholeGraphDense(g);
  const MbbResult dense = DenseMbbSolve(s);
  const MbbResult basic = BasicBbSolve(s);
  EXPECT_EQ(dense.best.BalancedSize(), basic.best.BalancedSize());
  // denseMBB should need far fewer recursions on dense inputs.
  EXPECT_LT(dense.stats.recursions, basic.stats.recursions);
}


/// Search pins: the exact counters and witness of denseMBB on fixed
/// randoms, at one thread and at four under `deterministic`, plus one run
/// each without the reductions and without the König bound. A change to
/// the branch rule (its tie order included), the reductions or the bounds
/// moves these numbers; a change that claims an identical search must
/// leave every one of them as it is.
struct PinnedGraph {
  std::uint32_t num_left;
  std::uint32_t num_right;
  double density;
  std::uint64_t seed;
  std::vector<VertexId> left;
  std::vector<VertexId> right;
};

struct PinnedSearch {
  std::size_t graph;
  std::uint32_t threads;
  bool reductions;
  bool matching;
  std::uint64_t recursions;
  std::uint64_t leaves;
  std::uint64_t bound_prunes;
  std::uint64_t matching_prunes;
  std::uint64_t promoted;
  std::uint64_t removed;
  std::uint64_t poly_cases;
};

std::vector<VertexId> Sorted(std::vector<VertexId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(DenseMbbPins, CountersAndWitnessesAreUnchanged) {
  const std::vector<PinnedGraph> graphs = {
    {40, 40, 0.5, 1,
     {0, 4, 12, 27, 33, 37, 39},
     {1, 10, 18, 27, 33, 37, 39}},
    {52, 48, 0.6, 9,
     {13, 14, 21, 25, 26, 27, 35, 38, 42},
     {2, 3, 5, 7, 13, 16, 18, 30, 36}},
    {48, 44, 0.7, 2,
     {2, 6, 10, 13, 18, 19, 21, 38, 39, 44},
     {4, 11, 14, 16, 17, 22, 29, 30, 34, 41}},
    {56, 60, 0.85, 10,
     {3, 4, 6, 9, 11, 15, 16, 21, 22, 28, 29, 32, 36, 40, 41, 44, 46, 48, 49},
     {6, 7, 8, 10, 12, 15, 23, 31, 34, 39, 41, 42, 43, 45, 46, 48, 50, 55, 59}},
    {64, 64, 0.92, 8,
     {0, 6, 7, 9, 10, 12, 13, 16, 17, 19, 21, 23, 24, 28, 29, 30, 32, 35, 36,
      39, 40, 44, 45, 49, 53, 54, 56, 62},
     {0, 2, 4, 5, 7, 9, 10, 15, 16, 18, 23, 26, 27, 31, 32, 35, 40, 41, 43,
      46, 49, 50, 53, 54, 57, 60, 61, 63}},
    {72, 72, 0.94, 5,
     {0, 2, 5, 11, 14, 16, 17, 18, 19, 20, 22, 23, 24, 26, 28, 29, 30, 31, 32,
      33, 34, 38, 43, 44, 48, 49, 56, 57, 60, 62, 63, 65, 68, 70},
     {0, 1, 2, 3, 6, 7, 10, 11, 14, 20, 21, 23, 26, 27, 29, 32, 33, 35, 36,
      38, 41, 45, 47, 49, 50, 52, 54, 59, 61, 62, 63, 65, 67, 68}},
  };
  const PinnedSearch searches[] = {
    {0, 1, true, true, 377, 6, 169, 10, 742, 2605, 4},
    {0, 4, true, true, 535, 38, 212, 12, 1022, 3152, 6},
    {1, 1, true, true, 7873, 8, 2729, 1177, 13004, 41913, 23},
    {1, 4, true, true, 9929, 55, 3466, 1376, 17935, 49455, 68},
    {2, 1, true, true, 13163, 10, 2904, 3614, 19771, 47290, 54},
    {2, 4, true, true, 15985, 59, 3640, 4169, 25798, 56289, 125},
    {3, 1, true, true, 18405, 16, 660, 8502, 16033, 31440, 25},
    {3, 4, true, true, 31959, 100, 1410, 14170, 36069, 57453, 300},
    {4, 1, true, true, 35445, 9, 692, 14733, 57174, 46195, 2289},
    {4, 4, true, true, 85779, 43, 1722, 35807, 135271, 114923, 5318},
    {5, 1, true, true, 9889, 3, 112, 4525, 14520, 12074, 305},
    {5, 4, true, true, 35121, 3, 835, 16069, 70408, 59236, 654},
    {2, 1, false, true, 40459, 5, 6159, 13917, 0, 0, 149},
    {2, 1, true, false, 31285, 10, 14596, 0, 90668, 169401, 1037},
  };
  for (const PinnedSearch& pin : searches) {
    const PinnedGraph& pg = graphs[pin.graph];
    const BipartiteGraph g = testing::RandomGraph(pg.num_left, pg.num_right,
                                                  pg.density, pg.seed);
    DenseMbbOptions options;
    options.num_threads = pin.threads;
    options.deterministic = pin.threads > 1;
    options.use_reductions = pin.reductions;
    options.use_matching_bound = pin.matching;
    const MbbResult result =
        DenseMbbSolve(testing::WholeGraphDense(g), options);
    SCOPED_TRACE(::testing::Message()
                 << pg.num_left << "x" << pg.num_right << " d" << pg.density
                 << " seed " << pg.seed << " T=" << pin.threads
                 << " reductions=" << pin.reductions
                 << " matching=" << pin.matching);
    ASSERT_TRUE(result.exact);
    const SearchStats& s = result.stats;
    EXPECT_EQ(s.recursions, pin.recursions);
    EXPECT_EQ(s.leaves, pin.leaves);
    EXPECT_EQ(s.bound_prunes, pin.bound_prunes);
    EXPECT_EQ(s.matching_prunes, pin.matching_prunes);
    EXPECT_EQ(s.reduction_promoted, pin.promoted);
    EXPECT_EQ(s.reduction_removed, pin.removed);
    EXPECT_EQ(s.poly_cases, pin.poly_cases);
    EXPECT_EQ(Sorted(result.best.left), pg.left);
    EXPECT_EQ(Sorted(result.best.right), pg.right);
  }
}

}  // namespace
}  // namespace mbb
