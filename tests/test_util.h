#ifndef MBB_TESTS_TEST_UTIL_H_
#define MBB_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/dense_subgraph.h"
#include "graph/generators.h"

namespace mbb::testing {

/// The sparse running example of the paper (Figure 1(b) / Table 2),
/// reconstructed from the facts stated in the text: bicliques ({1,2},{7}),
/// ({3,4,5},{9,10}); N2(2) = {1,3,6}; the core numbers of Table 2; the MBB
/// ({3,4},{9,10}). Vertices 1..6 are left (ids 0..5), 7..12 right (0..5).
inline BipartiteGraph PaperExampleGraph() {
  // Edges (1-based, paper labels): 1-7, 2-7, 2-8, 3-8, 3-9, 3-10, 4-9,
  // 4-10, 5-9, 5-10, 6-8, 6-11, 6-12.
  std::vector<Edge> edges = {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2},
                             {2, 3}, {3, 2}, {3, 3}, {4, 2}, {4, 3},
                             {5, 1}, {5, 4}, {5, 5}};
  return BipartiteGraph::FromEdges(6, 6, std::move(edges));
}

/// Complete bipartite graph K(nl, nr).
inline BipartiteGraph CompleteBipartite(std::uint32_t nl, std::uint32_t nr) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(nl) * nr);
  for (VertexId l = 0; l < nl; ++l) {
    for (VertexId r = 0; r < nr; ++r) edges.emplace_back(l, r);
  }
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

/// FNV-1a digest of both CSR sides of `g`: the side sizes, then each
/// side's offsets and adjacency. Equal digests mean, up to hash collision,
/// the same graph with the same vertex ids; the generator pins compare
/// these against values recorded from earlier builds.
inline std::uint64_t CsrDigest(const BipartiteGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.num_left());
  mix(g.num_right());
  for (const Side side : {Side::kLeft, Side::kRight}) {
    for (const std::uint64_t offset : g.RawOffsets(side)) mix(offset);
    for (const VertexId v : g.RawAdjacency(side)) mix(v);
  }
  return h;
}

/// DenseSubgraph covering the whole graph (identity vertex lists).
inline DenseSubgraph WholeGraphDense(const BipartiteGraph& g) {
  return DenseSubgraph::Whole(g);
}

/// A 1-row arena with bits [0, n) set: the full candidate set of an
/// n-vertex side. Pass `.Row(0)` where a `BitSpan` is expected.
inline BitMatrix FullSet(std::uint32_t n) {
  BitMatrix set(1, n);
  set.Row(0).SetAll();
  return set;
}

/// Uniform random test graph.
inline BipartiteGraph RandomGraph(std::uint32_t nl, std::uint32_t nr,
                                  double density, std::uint64_t seed) {
  return RandomUniform(nl, nr, density, seed);
}

/// A dense job that outlasts any test window, for tests that need a solve
/// still running after a short sleep (cancel, overload, shutdown, the
/// watchdog): denseMBB does not finish 96x96 at d0.9 within 30 s at four
/// threads on a 4-core x86 host. A tuned searcher ends a 64x64 d0.9 job
/// in tens of milliseconds, which made such tests measure host speed.
inline BipartiteGraph UnfinishableDenseGraph(std::uint64_t seed) {
  return RandomGraph(96, 96, 0.9, seed);
}

}  // namespace mbb::testing

#endif  // MBB_TESTS_TEST_UTIL_H_
