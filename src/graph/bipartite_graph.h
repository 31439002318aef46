#ifndef MBB_GRAPH_BIPARTITE_GRAPH_H_
#define MBB_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mbb {

/// Identifies one of the two vertex classes of a bipartite graph.
enum class Side : std::uint8_t { kLeft = 0, kRight = 1 };

/// The opposite vertex class.
constexpr Side Opposite(Side s) {
  return s == Side::kLeft ? Side::kRight : Side::kLeft;
}

/// Vertex identifier, local to its side: left vertices are `0..num_left-1`
/// and right vertices are `0..num_right-1`, independently.
using VertexId = std::uint32_t;

/// An undirected edge between left vertex `first` and right vertex `second`.
using Edge = std::pair<VertexId, VertexId>;

struct InducedSubgraph;

/// An immutable bipartite graph `G = (L, R, E)` in compressed sparse row
/// form, with adjacency stored from both sides and sorted by neighbour id.
///
/// This is the global, memory-lean representation used for million-vertex
/// graphs; branch-and-bound searches run on re-indexed `DenseSubgraph`
/// copies extracted from it.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Builds a graph from an edge list in any order. Duplicate edges are
  /// merged. Edges referencing vertices outside `[0, num_left) x
  /// [0, num_right)` throw `std::invalid_argument` naming the offending
  /// edge — in release builds too, matching the structured-error contract
  /// of `ReadEdgeListSafe`. Linear in `|E|` apart from sorting each left
  /// row: there is no global edge sort.
  static BipartiteGraph FromEdges(std::uint32_t num_left,
                                  std::uint32_t num_right,
                                  std::vector<Edge> edges);

  /// Non-throwing form of `FromEdges`: returns false and writes a
  /// structured message ("edge 3: right id 12 out of range [0, 6)") into
  /// `error` when an endpoint is out of range, leaving `out` untouched.
  static bool TryFromEdges(std::uint32_t num_left, std::uint32_t num_right,
                           std::vector<Edge> edges, BipartiteGraph* out,
                           std::string* error);

  /// Trusted fast path: adopts a ready left-side CSR (per-vertex neighbour
  /// lists sorted and duplicate-free — asserted in debug builds) and
  /// derives the right-side arrays in O(|E|), skipping the per-row sorts
  /// of `FromEdges`. `FromEdges` and `CsrScratch::Compact` build through
  /// this.
  static BipartiteGraph FromCsrLeft(std::uint32_t num_left,
                                    std::uint32_t num_right,
                                    std::vector<std::uint64_t> left_offsets,
                                    std::vector<VertexId> left_adj);

  std::uint32_t num_left() const { return num_left_; }
  std::uint32_t num_right() const { return num_right_; }

  /// `|L| + |R|`.
  std::uint32_t NumVertices() const { return num_left_ + num_right_; }

  /// Number of vertices on `side`.
  std::uint32_t NumVertices(Side side) const {
    return side == Side::kLeft ? num_left_ : num_right_;
  }

  /// Number of (undirected) edges.
  std::uint64_t num_edges() const { return left_adj_.size(); }

  /// `|E| / (|L| * |R|)`, 0 when either side is empty.
  double Density() const;

  /// Sorted neighbours of vertex `v` on side `side`; the returned ids live
  /// on the opposite side.
  std::span<const VertexId> Neighbors(Side side, VertexId v) const;

  std::uint32_t Degree(Side side, VertexId v) const {
    return static_cast<std::uint32_t>(Neighbors(side, v).size());
  }

  /// True when `(l, r)` with `l` in `L` and `r` in `R` is an edge.
  /// Logarithmic in `min(deg(l), deg(r))`.
  bool HasEdge(VertexId l, VertexId r) const;

  /// The maximum degree over all vertices of both sides; 0 for empty graphs.
  std::uint32_t MaxDegree() const;

  /// --- Global vertex indexing -------------------------------------------
  ///
  /// Several algorithms (core and bicore decompositions, search orders) need
  /// a single index space over `L ∪ R`. Left vertex `v` maps to `v`, right
  /// vertex `v` maps to `num_left() + v`.
  std::uint32_t GlobalIndex(Side side, VertexId v) const {
    return side == Side::kLeft ? v : num_left_ + v;
  }
  Side SideOf(std::uint32_t global) const {
    return global < num_left_ ? Side::kLeft : Side::kRight;
  }
  VertexId LocalId(std::uint32_t global) const {
    return global < num_left_ ? global : global - num_left_;
  }

  /// Induced subgraph on `left_keep x right_keep`. Both lists must be
  /// duplicate-free; they need not be sorted. New ids follow list order.
  InducedSubgraph Induce(std::span<const VertexId> left_keep,
                         std::span<const VertexId> right_keep) const;

  /// All edges, left id first, sorted by (left, right).
  std::vector<Edge> CollectEdges() const;

  /// --- Raw CSR access ----------------------------------------------------
  ///
  /// The underlying offset/adjacency arrays of one side, for zero-copy
  /// sparse views (`CsrView`). `RawOffsets(side)` has `NumVertices(side)+1`
  /// entries; vertex `v`'s neighbours are
  /// `RawAdjacency(side)[RawOffsets(side)[v] .. RawOffsets(side)[v+1])`.
  std::span<const std::uint64_t> RawOffsets(Side side) const {
    return side == Side::kLeft ? left_offsets_ : right_offsets_;
  }
  std::span<const VertexId> RawAdjacency(Side side) const {
    return side == Side::kLeft ? left_adj_ : right_adj_;
  }

 private:
  std::uint32_t num_left_ = 0;
  std::uint32_t num_right_ = 0;
  std::vector<std::uint64_t> left_offsets_;   // size num_left_ + 1
  std::vector<std::uint64_t> right_offsets_;  // size num_right_ + 1
  std::vector<VertexId> left_adj_;            // right ids, sorted per vertex
  std::vector<VertexId> right_adj_;           // left ids, sorted per vertex
};

/// Result of `BipartiteGraph::Induce`: the induced subgraph plus per-side
/// mappings from new (subgraph) vertex ids to old (source graph) ids.
struct InducedSubgraph {
  BipartiteGraph graph;
  std::vector<VertexId> left_to_old;
  std::vector<VertexId> right_to_old;
};

}  // namespace mbb

#endif  // MBB_GRAPH_BIPARTITE_GRAPH_H_
