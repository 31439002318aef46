#include "core/heuristic_mbb.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "graph/csr.h"
#include "graph/datasets.h"
#include "order/core_decomposition.h"
#include "order/vertex_centered.h"
#include "test_util.h"

namespace mbb {
namespace {

/// The greedy as a per-round scan of B's adjacency: the reference that
/// `GreedyMbb`'s incremental counts must reproduce, witness order included.
namespace reference {

Biclique GreedyFromSeed(const BipartiteGraph& g, Side side, VertexId seed,
                        std::span<const std::uint32_t> scores,
                        std::uint64_t work_cap) {
  std::vector<VertexId> a{seed};
  std::vector<VertexId> b(g.Neighbors(side, seed).begin(),
                          g.Neighbors(side, seed).end());
  Biclique best;
  const auto update_best = [&best, side](const std::vector<VertexId>& av,
                                         const std::vector<VertexId>& bv) {
    if (std::min(av.size(), bv.size()) > best.BalancedSize()) {
      best.left = side == Side::kLeft ? av : bv;
      best.right = side == Side::kLeft ? bv : av;
    }
  };
  update_best(a, b);
  std::vector<std::uint32_t> count(g.NumVertices(side), 0);
  std::vector<std::uint32_t> stamp(g.NumVertices(side), ~std::uint32_t{0});
  std::vector<bool> in_a(g.NumVertices(side), false);
  in_a[seed] = true;
  std::uint64_t work = 0;
  std::uint32_t round = 0;
  while (b.size() > a.size() && work < work_cap) {
    ++round;
    VertexId best_w = 0;
    std::uint32_t best_count = 0;
    std::uint32_t best_score = 0;
    bool found = false;
    for (const VertexId r : b) {
      const std::span<const VertexId> nbrs = g.Neighbors(Opposite(side), r);
      work += nbrs.size();
      for (const VertexId w : nbrs) {
        if (in_a[w]) continue;
        if (stamp[w] != round) {
          stamp[w] = round;
          count[w] = 0;
        }
        ++count[w];
        const std::uint32_t score =
            scores.empty() ? 0 : scores[g.GlobalIndex(side, w)];
        if (!found || count[w] > best_count ||
            (count[w] == best_count && score > best_score)) {
          found = true;
          best_w = w;
          best_count = count[w];
          best_score = score;
        }
      }
      if (work >= work_cap) break;
    }
    if (!found || best_count <= a.size()) break;
    a.push_back(best_w);
    in_a[best_w] = true;
    std::vector<VertexId> next_b;
    for (const VertexId r : b) {
      if (g.HasEdge(side == Side::kLeft ? best_w : r,
                    side == Side::kLeft ? r : best_w)) {
        next_b.push_back(r);
      }
    }
    b = std::move(next_b);
    update_best(a, b);
  }
  best.MakeBalanced();
  return best;
}

std::vector<std::pair<Side, VertexId>> TopSeeds(
    const BipartiteGraph& g, std::span<const std::uint32_t> scores,
    int top_r) {
  std::vector<std::uint32_t> order(g.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t keep = std::min<std::size_t>(
      order.size(), static_cast<std::size_t>(std::max(top_r, 1)) * 2);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&scores](std::uint32_t x, std::uint32_t y) {
                      return scores[x] > scores[y];
                    });
  std::vector<std::pair<Side, VertexId>> seeds;
  int left_taken = 0;
  int right_taken = 0;
  for (std::size_t i = 0; i < keep; ++i) {
    const Side side = g.SideOf(order[i]);
    int& taken = side == Side::kLeft ? left_taken : right_taken;
    if (taken >= top_r) continue;
    ++taken;
    seeds.emplace_back(side, g.LocalId(order[i]));
  }
  return seeds;
}

Biclique GreedyMbb(const BipartiteGraph& g,
                   std::span<const std::uint32_t> scores,
                   const GreedyOptions& options) {
  Biclique best;
  if (g.num_left() == 0 || g.num_right() == 0) return best;
  for (const auto& [side, seed] : TopSeeds(g, scores, options.top_r)) {
    Biclique candidate =
        GreedyFromSeed(g, side, seed, scores, options.work_cap);
    if (candidate.BalancedSize() > best.BalancedSize()) {
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace reference

/// Runs both greedies with degree scores and with all-zero scores (every
/// pick then falls to the tie-break), under each work cap.
void ExpectGreedyMatchesReference(const BipartiteGraph& g,
                                  std::span<const std::uint64_t> caps,
                                  const std::string& label) {
  const std::vector<std::uint32_t> degrees = DegreeScores(g);
  const std::vector<std::uint32_t> zeros(g.NumVertices(), 0);
  for (const std::vector<std::uint32_t>* scores : {&degrees, &zeros}) {
    for (const std::uint64_t cap : caps) {
      GreedyOptions options;
      options.work_cap = cap;
      const Biclique want = reference::GreedyMbb(g, *scores, options);
      const Biclique got = GreedyMbb(g, *scores, options);
      const std::string where = label + " cap " + std::to_string(cap) +
                                (scores == &zeros ? " zero" : " degree") +
                                " scores";
      EXPECT_EQ(got.left, want.left) << where;
      EXPECT_EQ(got.right, want.right) << where;
    }
  }
}

TEST(GreedyMbb, EmptyAndEdgelessGraphs) {
  const BipartiteGraph empty = BipartiteGraph::FromEdges(0, 0, {});
  EXPECT_TRUE(GreedyMbb(empty, DegreeScores(empty)).Empty());
  const BipartiteGraph edgeless = BipartiteGraph::FromEdges(4, 4, {});
  EXPECT_TRUE(GreedyMbb(edgeless, DegreeScores(edgeless)).Empty());
}

TEST(GreedyMbb, CompleteGraphIsExact) {
  const BipartiteGraph g = testing::CompleteBipartite(5, 9);
  const Biclique b = GreedyMbb(g, DegreeScores(g));
  EXPECT_EQ(b.BalancedSize(), 5u);
  EXPECT_TRUE(b.IsBicliqueIn(g));
  EXPECT_TRUE(b.IsBalanced());
}

TEST(GreedyMbb, ResultIsAlwaysValid) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const BipartiteGraph g =
        testing::RandomGraph(15, 15, 0.2 + 0.03 * (seed % 10), seed);
    const Biclique b = GreedyMbb(g, DegreeScores(g));
    EXPECT_TRUE(b.IsBicliqueIn(g)) << "seed " << seed;
    EXPECT_TRUE(b.IsBalanced());
  }
}

TEST(GreedyMbb, NeverExceedsOptimum) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(10, 10, 0.4, seed + 30);
    EXPECT_LE(GreedyMbb(g, DegreeScores(g)).BalancedSize(),
              BruteForceMbbSize(g));
  }
}

TEST(GreedyMbb, FindsStructureInSparseNoise) {
  const BipartiteGraph g =
      RandomSparseWithPlanted(200, 200, 400, 6, 2.1, 99);
  const Biclique b = GreedyMbb(g, DegreeScores(g));
  // The degree-seeded greedy lands on hubs rather than the planted 6x6, so
  // a gap to the optimum is expected (the paper's Figure 4 reports gaps up
  // to 10); it must still recover a non-trivial biclique.
  EXPECT_GE(b.BalancedSize(), 2u);
  EXPECT_TRUE(b.IsBicliqueIn(g));
}

TEST(GreedyMbb, MatchesPerRoundScanOnRandoms) {
  // Small caps stop a seed's run in the middle of a round.
  const std::uint64_t caps[] = {GreedyOptions{}.work_cap, 1, 57, 213, 1009};
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const std::uint32_t nl = 8 + static_cast<std::uint32_t>(seed % 37);
    const std::uint32_t nr = 8 + static_cast<std::uint32_t>(seed * 7 % 41);
    const BipartiteGraph g =
        seed % 3 == 2
            ? RandomChungLu(nl, nr, 3ull * (nl + nr), 2.1, seed)
            : testing::RandomGraph(nl, nr, 0.05 + 0.06 * (seed % 9), seed);
    ExpectGreedyMatchesReference(g, caps, "seed " + std::to_string(seed));
  }
}

TEST(GreedyMbb, MatchesPerRoundScanOnStep2Subgraphs) {
  // Step 2's local greedy runs on every centred subgraph of the step-1
  // reduced graph; discogs-style@0.2 reaches step 2.
  const BipartiteGraph g =
      GenerateSurrogate(*FindDataset("discogs-style"), 0.2);
  const HMbbOutcome step1 = HMbb(g);
  ASSERT_FALSE(step1.solved_exactly);
  const VertexOrder order =
      ComputeVertexOrder(step1.reduced, VertexOrderKind::kBidegeneracy);
  const std::uint64_t caps[] = {GreedyOptions{}.work_cap, 97};
  CenteredWorkspace workspace;
  CsrScratch scratch;
  for (const std::uint32_t center : order.order) {
    const CenteredSubgraph s =
        BuildCenteredSubgraph(step1.reduced, order, center, workspace);
    const bool left = s.center_side == Side::kLeft;
    const InducedSubgraph induced =
        CsrInduce(step1.reduced, left ? s.same_side : s.other_side,
                  left ? s.other_side : s.same_side, scratch);
    ExpectGreedyMatchesReference(induced.graph, caps,
                                 "centre " + std::to_string(center));
  }
}

TEST(HMbb, CoreHeuristicNarrowsPlantedGap) {
  // hMBB's second pass seeds at maximum-core vertices; the planted 6x6 is
  // exactly the high-core region, so step 1 alone should get close.
  const BipartiteGraph g =
      RandomSparseWithPlanted(200, 200, 400, 6, 2.1, 99);
  const HMbbOutcome out = HMbb(g);
  EXPECT_GE(out.best.BalancedSize(), 4u);
  EXPECT_TRUE(out.best.IsBicliqueIn(g));
}

TEST(DegreeScores, MatchesDegrees) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const std::vector<std::uint32_t> scores = DegreeScores(g);
  EXPECT_EQ(scores[g.GlobalIndex(Side::kLeft, 2)], 3u);   // paper vertex 3
  EXPECT_EQ(scores[g.GlobalIndex(Side::kRight, 0)], 2u);  // paper vertex 7
}

TEST(HMbb, PaperExampleTerminatesExactly) {
  // The paper works through this example: the core-based heuristic finds
  // ({3,4},{9,10}) and Lemma 5 certifies it (2δ == |A*|+|B*|).
  const BipartiteGraph g = testing::PaperExampleGraph();
  const HMbbOutcome out = HMbb(g);
  EXPECT_EQ(out.best.BalancedSize(), 2u);
  EXPECT_TRUE(out.solved_exactly);
  EXPECT_TRUE(out.best.IsBicliqueIn(g));
}

TEST(HMbb, CompleteGraphSolvedExactly) {
  const BipartiteGraph g = testing::CompleteBipartite(6, 6);
  const HMbbOutcome out = HMbb(g);
  EXPECT_EQ(out.best.BalancedSize(), 6u);
  EXPECT_TRUE(out.solved_exactly);
}

TEST(HMbb, EdgelessGraphSolvedExactly) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(4, 4, {});
  const HMbbOutcome out = HMbb(g);
  EXPECT_TRUE(out.solved_exactly);
  EXPECT_TRUE(out.best.Empty());
}

TEST(HMbb, ReducedGraphHasHighCores) {
  // Every vertex of the residual graph must lie in the (k+1)-core.
  const BipartiteGraph g = testing::RandomGraph(60, 60, 0.15, 7);
  const HMbbOutcome out = HMbb(g);
  if (out.solved_exactly) return;
  const std::uint32_t k = out.best.BalancedSize();
  const CoreDecomposition cores = ComputeCores(out.reduced);
  for (std::uint32_t v = 0; v < out.reduced.NumVertices(); ++v) {
    EXPECT_GE(cores.core[v], k + 1);
  }
}

TEST(HMbb, MapsAreConsistent) {
  const BipartiteGraph g = testing::RandomGraph(50, 50, 0.2, 8);
  const HMbbOutcome out = HMbb(g);
  if (out.solved_exactly) return;
  ASSERT_EQ(out.left_map.size(), out.reduced.num_left());
  ASSERT_EQ(out.right_map.size(), out.reduced.num_right());
  // Every edge of the reduced graph must exist in the original.
  for (const Edge& e : out.reduced.CollectEdges()) {
    EXPECT_TRUE(g.HasEdge(out.left_map[e.first], out.right_map[e.second]));
  }
}

TEST(HMbb, ReductionPreservesOptimumWhenImprovable) {
  // Lemma 4: vertices outside the (k+1)-core cannot be in a biclique
  // larger than k, so if the optimum exceeds the heuristic value the
  // reduced graph still contains an optimum.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(12, 12, 0.45, seed + 60);
    const std::uint32_t optimum = BruteForceMbbSize(g);
    const HMbbOutcome out = HMbb(g);
    EXPECT_LE(out.best.BalancedSize(), optimum);
    EXPECT_TRUE(out.best.IsBicliqueIn(g));
    if (out.solved_exactly) {
      EXPECT_EQ(out.best.BalancedSize(), optimum);
    } else if (optimum > out.best.BalancedSize()) {
      EXPECT_EQ(BruteForceMbbSize(out.reduced), optimum);
    }
  }
}

}  // namespace
}  // namespace mbb
