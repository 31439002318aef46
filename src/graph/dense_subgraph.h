#ifndef MBB_GRAPH_DENSE_SUBGRAPH_H_
#define MBB_GRAPH_DENSE_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/biclique.h"
#include "graph/bipartite_graph.h"
#include "graph/bit_matrix.h"

namespace mbb {

/// A small bipartite graph re-indexed to dense local ids with bitset
/// adjacency rows in both directions. All branch-and-bound searches
/// (`basicBB`, `denseMBB`, `dynamicMBB`) operate on this representation:
/// candidate sets are bitsets over local ids, and the inner-loop
/// operation "intersect candidates with N(u)" is a word-parallel AND.
///
/// Each side's rows live in one contiguous cache-line-aligned `BitMatrix`
/// arena (constant stride, rows in id order), so the reduction loops that
/// sweep `N(u)` for consecutive `u` walk memory linearly, and the bitops
/// SIMD kernels see aligned rows. Rows surface as `BitSpan` views.
/// Degrees are computed once at build time; `LeftDegree`/`RightDegree`
/// are O(1) lookups instead of per-call row popcounts.
///
/// The subgraph remembers which global side its local "left" corresponds to
/// (`left_side()`), because the sparse pipeline canonicalizes vertex-centred
/// subgraphs so that the centre vertex is always local left 0.
class DenseSubgraph {
 public:
  DenseSubgraph() = default;

  /// Extracts the subgraph of `g` induced by `left_vertices x
  /// right_vertices`, where `left_vertices` live on global side `left_side`
  /// and `right_vertices` on the opposite side. Lists must be duplicate-free.
  static DenseSubgraph Build(const BipartiteGraph& g,
                             std::span<const VertexId> left_vertices,
                             std::span<const VertexId> right_vertices,
                             Side left_side = Side::kLeft);

  /// Builds directly from local adjacency: `adj[l]` lists the right-local
  /// neighbours of left-local `l`. Used by generators and tests.
  static DenseSubgraph FromLocalAdjacency(
      std::uint32_t num_left, std::uint32_t num_right,
      const std::vector<std::vector<VertexId>>& adj);

  /// Covers the whole of `g` (identity vertex lists on both sides) — the
  /// standard way to run a dense searcher on a full bipartite graph.
  static DenseSubgraph Whole(const BipartiteGraph& g);

  std::uint32_t num_left() const {
    return static_cast<std::uint32_t>(left_adj_.rows());
  }
  std::uint32_t num_right() const {
    return static_cast<std::uint32_t>(right_adj_.rows());
  }
  std::uint32_t NumVertices() const { return num_left() + num_right(); }

  /// Which global side local-left ids correspond to.
  Side left_side() const { return left_side_; }

  /// Neighbour row of left-local `l`, as a bitset view over right-local ids.
  BitSpan LeftRow(VertexId l) const { return left_adj_.Row(l); }

  /// Neighbour row of right-local `r`, as a bitset view over left-local ids.
  BitSpan RightRow(VertexId r) const { return right_adj_.Row(r); }

  /// Neighbour row of a vertex on `side` (local id).
  BitSpan Row(Side side, VertexId v) const {
    return side == Side::kLeft ? LeftRow(v) : RightRow(v);
  }

  /// The whole adjacency arena of one side (diagnostics / benches).
  const BitMatrix& SideMatrix(Side side) const {
    return side == Side::kLeft ? left_adj_ : right_adj_;
  }

  bool HasEdge(VertexId l, VertexId r) const {
    return left_adj_.Row(l).Test(r);
  }

  std::uint32_t LeftDegree(VertexId l) const { return left_deg_[l]; }
  std::uint32_t RightDegree(VertexId r) const { return right_deg_[r]; }

  std::uint64_t CountEdges() const;

  /// `|E| / (|L| * |R|)`, 0 when either side is empty.
  double Density() const;

  /// Maps a left-local id back to the id in the graph this subgraph was
  /// built from (on side `left_side()`).
  VertexId OriginalLeft(VertexId l) const { return left_origin_[l]; }
  /// Maps a right-local id back to the origin graph (opposite side).
  VertexId OriginalRight(VertexId r) const { return right_origin_[r]; }

  /// Translates a biclique expressed in local ids into origin-graph ids,
  /// respecting `left_side()` (i.e. the result's `left`/`right` always refer
  /// to the origin graph's true L/R sides).
  Biclique ToOriginal(const Biclique& local) const;

 private:
  // Recomputes the cached degree vectors from the adjacency arenas.
  void CacheDegrees();

  Side left_side_ = Side::kLeft;
  BitMatrix left_adj_;   // one row per left-local vertex, over right ids
  BitMatrix right_adj_;  // one row per right-local vertex, over left ids
  std::vector<std::uint32_t> left_deg_;
  std::vector<std::uint32_t> right_deg_;
  std::vector<VertexId> left_origin_;
  std::vector<VertexId> right_origin_;
};

}  // namespace mbb

#endif  // MBB_GRAPH_DENSE_SUBGRAPH_H_
