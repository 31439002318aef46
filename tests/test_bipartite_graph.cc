#include "graph/bipartite_graph.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

namespace mbb {
namespace {

TEST(BipartiteGraph, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(0, 0, {});
  EXPECT_EQ(g.num_left(), 0u);
  EXPECT_EQ(g.num_right(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_DOUBLE_EQ(g.Density(), 0.0);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(BipartiteGraph, VerticesWithoutEdges) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(3, 4, {});
  EXPECT_EQ(g.num_left(), 3u);
  EXPECT_EQ(g.num_right(), 4u);
  EXPECT_EQ(g.Degree(Side::kLeft, 0), 0u);
  EXPECT_EQ(g.Degree(Side::kRight, 3), 0u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(BipartiteGraph, DuplicateEdgesMerged) {
  const BipartiteGraph g =
      BipartiteGraph::FromEdges(2, 2, {{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(BipartiteGraph, NeighborsSortedBothSides) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(
      3, 5, {{0, 4}, {0, 1}, {0, 3}, {2, 0}, {2, 4}, {1, 2}});
  for (VertexId l = 0; l < g.num_left(); ++l) {
    const auto nbrs = g.Neighbors(Side::kLeft, l);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
  for (VertexId r = 0; r < g.num_right(); ++r) {
    const auto nbrs = g.Neighbors(Side::kRight, r);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
  const auto n0 = g.Neighbors(Side::kLeft, 0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 3, 4}));
}

TEST(BipartiteGraph, TwoSidedAdjacencyConsistent) {
  const BipartiteGraph g = testing::RandomGraph(20, 30, 0.2, 99);
  std::uint64_t left_total = 0;
  for (VertexId l = 0; l < g.num_left(); ++l) {
    for (const VertexId r : g.Neighbors(Side::kLeft, l)) {
      EXPECT_TRUE(g.HasEdge(l, r));
      const auto rn = g.Neighbors(Side::kRight, r);
      EXPECT_TRUE(std::binary_search(rn.begin(), rn.end(), l));
      ++left_total;
    }
  }
  EXPECT_EQ(left_total, g.num_edges());
}

TEST(BipartiteGraph, DensityAndMaxDegree) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 6);
  EXPECT_DOUBLE_EQ(g.Density(), 1.0);
  EXPECT_EQ(g.MaxDegree(), 6u);
  EXPECT_EQ(g.num_edges(), 24u);
}

TEST(BipartiteGraph, GlobalIndexRoundTrip) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(5, 7, {{0, 0}});
  for (VertexId v = 0; v < 5; ++v) {
    const std::uint32_t global = g.GlobalIndex(Side::kLeft, v);
    EXPECT_EQ(g.SideOf(global), Side::kLeft);
    EXPECT_EQ(g.LocalId(global), v);
  }
  for (VertexId v = 0; v < 7; ++v) {
    const std::uint32_t global = g.GlobalIndex(Side::kRight, v);
    EXPECT_EQ(global, 5u + v);
    EXPECT_EQ(g.SideOf(global), Side::kRight);
    EXPECT_EQ(g.LocalId(global), v);
  }
}

TEST(BipartiteGraph, InduceKeepsExactlyInducedEdges) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  // Keep paper vertices {3,4,5} (ids 2,3,4) and {9,10} (ids 2,3).
  const std::vector<VertexId> left_keep = {2, 3, 4};
  const std::vector<VertexId> right_keep = {2, 3};
  const InducedSubgraph sub = g.Induce(left_keep, right_keep);
  EXPECT_EQ(sub.graph.num_left(), 3u);
  EXPECT_EQ(sub.graph.num_right(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 6u);  // the ({3,4,5},{9,10}) biclique
  EXPECT_EQ(sub.left_to_old, left_keep);
  EXPECT_EQ(sub.right_to_old, right_keep);
  for (VertexId l = 0; l < 3; ++l) {
    for (VertexId r = 0; r < 2; ++r) {
      EXPECT_EQ(sub.graph.HasEdge(l, r),
                g.HasEdge(sub.left_to_old[l], sub.right_to_old[r]));
    }
  }
}

TEST(BipartiteGraph, InduceWithUnsortedLists) {
  const BipartiteGraph g = testing::CompleteBipartite(4, 4);
  const std::vector<VertexId> left_keep = {3, 0};
  const std::vector<VertexId> right_keep = {2, 1, 0};
  const InducedSubgraph sub = g.Induce(left_keep, right_keep);
  EXPECT_EQ(sub.graph.num_edges(), 6u);
  EXPECT_EQ(sub.left_to_old[0], 3u);
  EXPECT_EQ(sub.right_to_old[2], 0u);
}

TEST(BipartiteGraph, CollectEdgesRoundTrip) {
  const BipartiteGraph g = testing::RandomGraph(15, 12, 0.3, 5);
  const std::vector<Edge> edges = g.CollectEdges();
  EXPECT_EQ(edges.size(), g.num_edges());
  const BipartiteGraph g2 =
      BipartiteGraph::FromEdges(g.num_left(), g.num_right(), edges);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (const Edge& e : edges) {
    EXPECT_TRUE(g2.HasEdge(e.first, e.second));
  }
}

TEST(BipartiteGraph, PaperExampleDegrees) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  EXPECT_EQ(g.num_edges(), 13u);
  EXPECT_EQ(g.Degree(Side::kLeft, 0), 1u);   // paper vertex 1: {7}
  EXPECT_EQ(g.Degree(Side::kLeft, 2), 3u);   // paper vertex 3: {8,9,10}
  EXPECT_EQ(g.Degree(Side::kLeft, 5), 3u);   // paper vertex 6: {8,11,12}
  EXPECT_EQ(g.Degree(Side::kRight, 0), 2u);  // paper vertex 7: {1,2}
  EXPECT_EQ(g.Degree(Side::kRight, 2), 3u);  // paper vertex 9: {3,4,5}
}


// ---------------------------------------------------------------------------
// FromEdges against a reference build: one global sort + unique of the edge
// list, then both CSR sides filled in (left, right) order.
// ---------------------------------------------------------------------------

void ExpectMatchesSortUniqueBuild(std::uint32_t nl, std::uint32_t nr,
                                  const std::vector<Edge>& edges) {
  std::vector<Edge> sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<std::vector<VertexId>> left(nl), right(nr);
  for (const auto& [l, r] : sorted) {
    left[l].push_back(r);
    right[r].push_back(l);
  }

  const BipartiteGraph g = BipartiteGraph::FromEdges(nl, nr, edges);
  ASSERT_EQ(g.num_left(), nl);
  ASSERT_EQ(g.num_right(), nr);
  EXPECT_EQ(g.num_edges(), sorted.size());
  EXPECT_EQ(g.CollectEdges(), sorted);
  for (VertexId l = 0; l < nl; ++l) {
    const auto row = g.Neighbors(Side::kLeft, l);
    EXPECT_TRUE(std::equal(row.begin(), row.end(), left[l].begin(),
                           left[l].end()))
        << "left " << l;
  }
  for (VertexId r = 0; r < nr; ++r) {
    const auto row = g.Neighbors(Side::kRight, r);
    EXPECT_TRUE(std::equal(row.begin(), row.end(), right[r].begin(),
                           right[r].end()))
        << "right " << r;
  }
  EXPECT_EQ(g.RawOffsets(Side::kLeft).size(), nl + std::size_t{1});
  EXPECT_EQ(g.RawOffsets(Side::kRight).size(), nr + std::size_t{1});
}

TEST(FromEdgesBuild, ShuffledDuplicatesMatchSortUniqueBuild) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t nl = std::uniform_int_distribution<std::uint32_t>(
        1, 40)(rng);
    const std::uint32_t nr = std::uniform_int_distribution<std::uint32_t>(
        1, 40)(rng);
    // Few draws leave most rows empty; many draw every pair several times.
    const std::size_t count = std::uniform_int_distribution<std::size_t>(
        0, 3 * std::size_t{nl} * nr)(rng);
    std::uniform_int_distribution<VertexId> pick_l(0, nl - 1);
    std::uniform_int_distribution<VertexId> pick_r(0, nr - 1);
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < count; ++i) {
      edges.emplace_back(pick_l(rng), pick_r(rng));
    }
    std::shuffle(edges.begin(), edges.end(), rng);
    ExpectMatchesSortUniqueBuild(nl, nr, edges);
  }
}

TEST(FromEdgesBuild, EmptyRowsAndEmptySides) {
  ExpectMatchesSortUniqueBuild(0, 0, {});
  ExpectMatchesSortUniqueBuild(0, 7, {});
  ExpectMatchesSortUniqueBuild(5, 0, {});
  // Every row but the last is empty, then only the first.
  ExpectMatchesSortUniqueBuild(6, 3, {{5, 2}, {5, 0}, {5, 2}});
  ExpectMatchesSortUniqueBuild(6, 3, {{0, 1}, {0, 1}, {0, 0}});
  // One hub row amid empty ones, every edge repeated.
  std::vector<Edge> hub;
  for (VertexId r = 0; r < 50; ++r) {
    hub.emplace_back(3, 49 - r);
    hub.emplace_back(3, r);
  }
  ExpectMatchesSortUniqueBuild(8, 50, hub);
}

TEST(FromEdgesBuild, OutOfRangeMessages) {
  const auto message = [](std::uint32_t nl, std::uint32_t nr,
                          std::vector<Edge> edges) {
    BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 1}});
    const std::uint64_t before = testing::CsrDigest(g);
    std::string error;
    EXPECT_FALSE(BipartiteGraph::TryFromEdges(nl, nr, edges, &g, &error));
    EXPECT_EQ(testing::CsrDigest(g), before) << "out was modified";
    std::string thrown;
    try {
      BipartiteGraph::FromEdges(nl, nr, edges);
    } catch (const std::invalid_argument& e) {
      thrown = e.what();
    }
    EXPECT_EQ(thrown, error);
    return error;
  };
  EXPECT_EQ(message(4, 6, {{0, 0}, {1, 12}}),
            "edge 1: right id 12 out of range [0, 6)");
  EXPECT_EQ(message(4, 6, {{0, 0}, {3, 5}, {4, 0}}),
            "edge 2: left id 4 out of range [0, 4)");
  // Both endpoints out of range: the left one is named.
  EXPECT_EQ(message(4, 6, {{9, 9}}), "edge 0: left id 9 out of range [0, 4)");
  // The first bad edge is named, not a later one.
  EXPECT_EQ(message(4, 6, {{0, 6}, {7, 0}}),
            "edge 0: right id 6 out of range [0, 6)");
  // A side with no vertices accepts no edge.
  EXPECT_EQ(message(0, 3, {{0, 0}}), "edge 0: left id 0 out of range [0, 0)");
  EXPECT_EQ(message(3, 0, {{0, 0}}), "edge 0: right id 0 out of range [0, 0)");
}

}  // namespace
}  // namespace mbb
