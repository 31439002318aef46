#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/registry.h"
#include "engine/solver.h"
#include "order/core_decomposition.h"
#include "test_util.h"

namespace mbb {
namespace {

using testing::PaperExampleGraph;
using testing::RandomGraph;

/// Neighbour list of `v` as a vector (reference path: BipartiteGraph).
std::vector<VertexId> GraphNeighbors(const BipartiteGraph& g, Side side,
                                     VertexId v) {
  const auto span = g.Neighbors(side, v);
  return {span.begin(), span.end()};
}

/// Live neighbour list of scratch vertex `v`.
std::vector<VertexId> ScratchNeighbors(const CsrScratch& scratch, Side side,
                                       VertexId v) {
  std::vector<VertexId> out;
  scratch.ForEachNeighbor(side, v, [&](VertexId w) { out.push_back(w); });
  return out;
}

/// Structural equality of two graphs: sizes plus every adjacency row.
void ExpectSameGraph(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.num_left(), b.num_left());
  ASSERT_EQ(a.num_right(), b.num_right());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (const Side side : {Side::kLeft, Side::kRight}) {
    for (VertexId v = 0; v < a.NumVertices(side); ++v) {
      EXPECT_EQ(GraphNeighbors(a, side, v), GraphNeighbors(b, side, v))
          << "side=" << static_cast<int>(side) << " v=" << v;
    }
  }
}

/// A duplicate-free random subset of [0, n), in shuffled (unsorted) order.
std::vector<VertexId> RandomKeepList(std::uint32_t n, double keep_prob,
                                     std::mt19937& rng) {
  std::vector<VertexId> keep;
  std::bernoulli_distribution coin(keep_prob);
  for (VertexId v = 0; v < n; ++v) {
    if (coin(rng)) keep.push_back(v);
  }
  std::shuffle(keep.begin(), keep.end(), rng);
  return keep;
}

// ---------------------------------------------------------------------------
// CsrView: zero-copy equivalence with the graph accessors.
// ---------------------------------------------------------------------------

TEST(CsrView, MatchesGraphAccessors) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BipartiteGraph g = RandomGraph(40, 30, 0.1, seed);
    const CsrView view = CsrView::Of(g);
    ASSERT_EQ(view.num_left(), g.num_left());
    ASSERT_EQ(view.num_right(), g.num_right());
    ASSERT_EQ(view.num_edges(), g.num_edges());
    for (const Side side : {Side::kLeft, Side::kRight}) {
      for (VertexId v = 0; v < g.NumVertices(side); ++v) {
        EXPECT_EQ(view.Degree(side, v), g.Degree(side, v));
        const auto span = view.Neighbors(side, v);
        EXPECT_EQ(std::vector<VertexId>(span.begin(), span.end()),
                  GraphNeighbors(g, side, v));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CsrScratch: loading, deletion semantics, peeling, compaction.
// ---------------------------------------------------------------------------

TEST(CsrScratch, LoadMatchesGraph) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BipartiteGraph g = RandomGraph(25, 35, 0.15, seed);
    CsrScratch scratch;
    scratch.Load(g);
    EXPECT_EQ(scratch.NumAlive(Side::kLeft), g.num_left());
    EXPECT_EQ(scratch.NumAlive(Side::kRight), g.num_right());
    EXPECT_EQ(scratch.num_live_edges(), g.num_edges());
    for (const Side side : {Side::kLeft, Side::kRight}) {
      for (VertexId v = 0; v < g.NumVertices(side); ++v) {
        EXPECT_TRUE(scratch.Alive(side, v));
        EXPECT_EQ(scratch.OldId(side, v), v);
        EXPECT_EQ(scratch.Degree(side, v), g.Degree(side, v));
        EXPECT_EQ(ScratchNeighbors(scratch, side, v),
                  GraphNeighbors(g, side, v));
      }
    }
  }
}

TEST(CsrScratch, LoadSubgraphMatchesInduce) {
  std::mt19937 rng(7);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BipartiteGraph g = RandomGraph(30, 30, 0.2, seed);
    const std::vector<VertexId> left_keep = RandomKeepList(30, 0.6, rng);
    const std::vector<VertexId> right_keep = RandomKeepList(30, 0.6, rng);
    const InducedSubgraph induced = g.Induce(left_keep, right_keep);
    CsrScratch scratch;
    scratch.LoadSubgraph(g, left_keep, right_keep);
    ASSERT_EQ(scratch.NumVertices(Side::kLeft), induced.graph.num_left());
    ASSERT_EQ(scratch.NumVertices(Side::kRight), induced.graph.num_right());
    EXPECT_EQ(scratch.num_live_edges(), induced.graph.num_edges());
    for (const Side side : {Side::kLeft, Side::kRight}) {
      const auto& to_old = side == Side::kLeft ? induced.left_to_old
                                               : induced.right_to_old;
      for (VertexId v = 0; v < induced.graph.NumVertices(side); ++v) {
        EXPECT_EQ(scratch.OldId(side, v), to_old[v]);
        EXPECT_EQ(scratch.Degree(side, v), induced.graph.Degree(side, v));
        EXPECT_EQ(ScratchNeighbors(scratch, side, v),
                  GraphNeighbors(induced.graph, side, v));
      }
    }
  }
}

TEST(CsrScratch, PeelToCoreMatchesCoreDecomposition) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BipartiteGraph g = RandomGraph(40, 40, 0.12, seed);
    const CoreDecomposition cores = ComputeCores(g);
    for (std::uint32_t k = 1; k <= cores.degeneracy + 1; ++k) {
      CsrScratch scratch;
      scratch.Load(g);
      const PeelStats peel = scratch.PeelToCore(k);
      const KCoreVertices expected = KCore(cores, g, k);
      EXPECT_EQ(scratch.LiveOldIds(Side::kLeft), expected.left)
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(scratch.LiveOldIds(Side::kRight), expected.right);
      EXPECT_EQ(peel.vertices_removed,
                (g.num_left() + g.num_right()) -
                    (expected.left.size() + expected.right.size()));
      EXPECT_EQ(peel.edges_removed, g.num_edges() - scratch.num_live_edges());
      // Every survivor really has live degree >= k.
      for (const Side side : {Side::kLeft, Side::kRight}) {
        for (VertexId v = 0; v < scratch.NumVertices(side); ++v) {
          if (scratch.Alive(side, v)) EXPECT_GE(scratch.Degree(side, v), k);
        }
      }
    }
  }
}

TEST(CsrScratch, CompactAfterPeelMatchesInduce) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BipartiteGraph g = RandomGraph(30, 30, 0.2, seed);
    CsrScratch scratch;
    scratch.Load(g);
    scratch.PeelToCore(2);
    const InducedSubgraph compacted = scratch.Compact();
    const InducedSubgraph reference = g.Induce(
        scratch.LiveOldIds(Side::kLeft), scratch.LiveOldIds(Side::kRight));
    ExpectSameGraph(compacted.graph, reference.graph);
    EXPECT_EQ(compacted.left_to_old, reference.left_to_old);
    EXPECT_EQ(compacted.right_to_old, reference.right_to_old);
  }
}

TEST(CsrInduce, BitIdenticalToInduce) {
  std::mt19937 rng(23);
  CsrScratch scratch;  // reused across every call, as in the scans
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const BipartiteGraph g = RandomGraph(25, 40, 0.2, seed);
    const std::vector<VertexId> left_keep = RandomKeepList(25, 0.5, rng);
    const std::vector<VertexId> right_keep = RandomKeepList(40, 0.5, rng);
    const InducedSubgraph sparse =
        CsrInduce(g, left_keep, right_keep, scratch);
    const InducedSubgraph dense = g.Induce(left_keep, right_keep);
    ExpectSameGraph(sparse.graph, dense.graph);
    EXPECT_EQ(sparse.left_to_old, dense.left_to_old);
    EXPECT_EQ(sparse.right_to_old, dense.right_to_old);
  }
}

// ---------------------------------------------------------------------------
// FromEdges endpoint validation (release builds included).
// ---------------------------------------------------------------------------

TEST(FromEdgesValidation, OutOfRangeEndpointThrows) {
  EXPECT_THROW(BipartiteGraph::FromEdges(4, 6, {{0, 0}, {4, 0}}),
               std::invalid_argument);
  EXPECT_THROW(BipartiteGraph::FromEdges(4, 6, {{0, 0}, {3, 6}}),
               std::invalid_argument);
}

TEST(FromEdgesValidation, TryFromEdgesReportsStructuredError) {
  BipartiteGraph g;
  std::string error;
  EXPECT_FALSE(BipartiteGraph::TryFromEdges(4, 6, {{0, 0}, {1, 12}}, &g,
                                            &error));
  EXPECT_NE(error.find("edge 1"), std::string::npos) << error;
  EXPECT_NE(error.find("right id 12"), std::string::npos) << error;
  EXPECT_NE(error.find("[0, 6)"), std::string::npos) << error;

  error.clear();
  EXPECT_TRUE(BipartiteGraph::TryFromEdges(4, 6, {{0, 0}, {3, 5}}, &g,
                                           &error));
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(g.num_edges(), 2u);
}

// ---------------------------------------------------------------------------
// Reduction pins: the sparse pipeline's reduction counters, subgraph buckets
// and `--deterministic` witnesses for hbv, bd1 and bd2. The values are
// recorded, not derived, so a change to any CSR reduction (step-1 Lemma 4,
// the step-2 per-centre builds, verify's per-survivor core peel) shows up
// here even when the optimum stays the same.
// ---------------------------------------------------------------------------

struct ReductionPin {
  const char* algo;
  std::uint64_t step1_vertices_removed;
  std::uint64_t step1_edges_removed;
  std::uint64_t core_reduction_vertices_removed;
  std::uint64_t sparse_to_dense_switches;
  std::uint64_t total;
  std::uint64_t pruned_size;
  std::uint64_t pruned_degeneracy;
  std::uint64_t searched;
  int terminated_step;
  std::vector<VertexId> left;
  std::vector<VertexId> right;
};

/// Solves `g` with `pin.algo` in deterministic mode at one and four
/// threads. One thread must match every pinned value; four threads must
/// return the same witness and reduction counters (their bucket split may
/// differ: the frozen snapshots prune against the incoming bound).
void ExpectReductionPin(const BipartiteGraph& g, const ReductionPin& pin,
                        const std::string& graph_label) {
  for (const std::uint32_t threads : {1u, 4u}) {
    SolverOptions options;
    options.num_threads = threads;
    options.deterministic = true;
    const MbbResult result = SolverRegistry::Solve(pin.algo, g, options);
    const SearchStats& stats = result.stats;
    const std::string label =
        graph_label + " " + pin.algo + " T" + std::to_string(threads);
    EXPECT_TRUE(result.exact) << label;
    EXPECT_EQ(result.best.left, pin.left) << label;
    EXPECT_EQ(result.best.right, pin.right) << label;
    EXPECT_EQ(stats.step1_vertices_removed, pin.step1_vertices_removed)
        << label;
    EXPECT_EQ(stats.step1_edges_removed, pin.step1_edges_removed) << label;
    EXPECT_EQ(stats.core_reduction_vertices_removed,
              pin.core_reduction_vertices_removed)
        << label;
    EXPECT_EQ(stats.sparse_to_dense_switches, pin.sparse_to_dense_switches)
        << label;
    EXPECT_EQ(stats.terminated_step, pin.terminated_step) << label;
    if (threads != 1) continue;
    EXPECT_EQ(stats.subgraphs_total, pin.total) << label;
    EXPECT_EQ(stats.subgraphs_pruned_size, pin.pruned_size) << label;
    EXPECT_EQ(stats.subgraphs_pruned_degeneracy, pin.pruned_degeneracy)
        << label;
    EXPECT_EQ(stats.subgraphs_searched, pin.searched) << label;
  }
}

TEST(ReductionPins, PaperExample) {
  const BipartiteGraph g = PaperExampleGraph();
  const std::vector<VertexId> left = {2, 3};
  const std::vector<VertexId> right = {3, 2};
  const ReductionPin pins[] = {
      {"hbv", 0, 0, 0, 0, 0, 0, 0, 0, 1, left, right},
      {"bd1", 0, 0, 0, 0, 12, 12, 0, 0, 2, left, right},
      {"bd2", 0, 0, 0, 0, 12, 12, 0, 0, 2, left, right},
  };
  for (const ReductionPin& pin : pins) ExpectReductionPin(g, pin, "paper");
}

TEST(ReductionPins, SparseRandoms) {
  struct Case {
    std::uint32_t nl;
    std::uint32_t nr;
    double density;
    std::uint64_t seed;
    ReductionPin pins[3];
  };
  const Case cases[] = {
      // Step 1 removes most of the graph; hbv finishes in step 2.
      {60, 60, 0.10, 1,
       {{"hbv", 36, 99, 0, 0, 84, 46, 38, 0, 2, {40, 59, 44}, {10, 23, 50}},
        {"bd1", 0, 0, 0, 0, 120, 54, 66, 0, 2, {42, 2, 48}, {23, 20, 42}},
        {"bd2", 0, 0, 0, 46, 120, 74, 0, 46, 3, {40, 59, 44},
         {10, 23, 50}}}},
      // Two survivors reach verify's core peel.
      {100, 100, 0.18, 10,
       {{"hbv", 0, 0, 62, 2, 200, 96, 102, 2, 3, {16, 56, 13, 75},
         {13, 58, 88, 98}},
        {"bd1", 0, 0, 62, 2, 200, 96, 102, 2, 3, {0, 16, 56, 74},
         {13, 80, 10, 98}},
        {"bd2", 0, 0, 0, 104, 200, 96, 0, 104, 3, {16, 56, 13, 75},
         {13, 58, 88, 98}}}},
      {70, 90, 0.22, 13,
       {{"hbv", 0, 0, 597, 23, 160, 94, 43, 23, 3, {7, 32, 34, 41},
         {78, 72, 23, 75}},
        {"bd1", 0, 0, 597, 23, 160, 94, 43, 23, 3, {34, 7, 41, 32},
         {78, 72, 23, 75}},
        {"bd2", 0, 0, 0, 66, 160, 94, 0, 66, 3, {7, 32, 34, 41},
         {78, 72, 23, 75}}}},
  };
  for (const Case& c : cases) {
    const BipartiteGraph g = RandomGraph(c.nl, c.nr, c.density, c.seed);
    const std::string label = std::to_string(c.nl) + "x" +
                              std::to_string(c.nr) + " seed " +
                              std::to_string(c.seed);
    for (const ReductionPin& pin : c.pins) ExpectReductionPin(g, pin, label);
  }
}

}  // namespace
}  // namespace mbb
