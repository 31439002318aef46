#ifndef MBB_CORE_COMPLEMENT_DECOMPOSITION_H_
#define MBB_CORE_COMPLEMENT_DECOMPOSITION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/dense_subgraph.h"

namespace mbb {

/// A vertex of the candidate subgraph, tagged with its (local) side.
struct ComplementVertex {
  Side side;
  VertexId id;

  bool operator==(const ComplementVertex& o) const {
    return side == o.side && id == o.id;
  }
};

/// One connected component of the bipartite complement of the candidate
/// subgraph, which under the Lemma 3 precondition (every vertex misses at
/// most 2 cross-side neighbours) is a simple path or cycle (Observation 1).
/// `vertices` lists the component in traversal order: consecutive entries
/// are complement-adjacent, and for cycles the last is also adjacent to
/// the first.
struct ComplementComponent {
  bool is_cycle = false;
  std::vector<ComplementVertex> vertices;
};

/// Decomposition of the complement of the `(ca, cb)`-induced subgraph.
struct ComplementDecomposition {
  /// True when every candidate vertex misses at most 2 neighbours on the
  /// other candidate side — the Lemma 3 polynomial-solvability condition.
  /// When false the rest of the structure is unspecified.
  bool lemma3_satisfied = false;
  std::vector<ComplementComponent> components;
  /// "Trivial part": candidates adjacent (in G) to the entire opposite
  /// candidate set; they can join any biclique of the candidate subgraph.
  std::vector<VertexId> full_left;
  std::vector<VertexId> full_right;
};

/// Builds the complement decomposition of the subgraph of `g` induced by
/// candidate sets `ca` (left-local) x `cb` (right-local), given as bitset
/// views (a `BitRow` or a `BitMatrix` row both convert).
ComplementDecomposition DecomposeComplement(const DenseSubgraph& g,
                                            BitSpan ca, BitSpan cb);

/// An achievable "(a, b) biclique instance" of a component: `first` left
/// vertices and `second` right vertices forming an independent set of the
/// complement component — equivalently, a biclique of the original
/// candidate subgraph restricted to the component's vertices.
using ParetoPoint = std::pair<std::uint32_t, std::uint32_t>;

/// The Pareto-maximal (a, b) instances of `comp` (Observation 2), computed
/// exactly by dynamic programming over the path/cycle (the arXiv text's
/// closed-form lists are internally inconsistent — see DESIGN.md). Sorted
/// by ascending `a` (so descending `b`).
std::vector<ParetoPoint> ComponentFrontier(const ComplementComponent& comp);

/// Materializes an independent set of `comp` with at least `a` left and
/// `b` right vertices (Observation 3). Returns an empty vector when
/// infeasible; every point of `ComponentFrontier` is feasible.
std::vector<ComplementVertex> RealizeInstance(const ComplementComponent& comp,
                                              std::uint32_t a,
                                              std::uint32_t b);

/// Merges `points` into a Pareto-maximal set (ascending `a`, descending
/// `b`). Exposed for the combination DP and tests.
std::vector<ParetoPoint> ParetoFilter(std::vector<ParetoPoint> points);

}  // namespace mbb

#endif  // MBB_CORE_COMPLEMENT_DECOMPOSITION_H_
