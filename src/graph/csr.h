#ifndef MBB_GRAPH_CSR_H_
#define MBB_GRAPH_CSR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"

namespace mbb {

/// Zero-copy compressed-sparse-row view over both sides of a
/// `BipartiteGraph`. The sparse phases of the pipeline (step-1 core
/// reduction, the step-2 bridge scan, verify's per-subgraph reduction, the
/// serving layer's hardness estimators) take this instead of walking the
/// graph's accessor methods, so they state explicitly that they run on the
/// sparse representation — the dense `BitMatrix` form is built only for
/// the compacted kernels handed to the branch-and-bound searches.
class CsrView {
 public:
  CsrView() = default;

  static CsrView Of(const BipartiteGraph& g) {
    CsrView v;
    v.num_vertices_[0] = g.num_left();
    v.num_vertices_[1] = g.num_right();
    v.offsets_[0] = g.RawOffsets(Side::kLeft);
    v.offsets_[1] = g.RawOffsets(Side::kRight);
    v.adj_[0] = g.RawAdjacency(Side::kLeft);
    v.adj_[1] = g.RawAdjacency(Side::kRight);
    return v;
  }

  std::uint32_t num_left() const { return num_vertices_[0]; }
  std::uint32_t num_right() const { return num_vertices_[1]; }
  std::uint32_t NumVertices(Side side) const {
    return num_vertices_[static_cast<int>(side)];
  }
  std::uint64_t num_edges() const { return adj_[0].size(); }

  /// Sorted neighbours of `v` on `side` (ids live on the opposite side).
  std::span<const VertexId> Neighbors(Side side, VertexId v) const {
    const int s = static_cast<int>(side);
    return adj_[s].subspan(offsets_[s][v], offsets_[s][v + 1] - offsets_[s][v]);
  }

  std::uint32_t Degree(Side side, VertexId v) const {
    const int s = static_cast<int>(side);
    return static_cast<std::uint32_t>(offsets_[s][v + 1] - offsets_[s][v]);
  }

 private:
  std::uint32_t num_vertices_[2] = {0, 0};
  std::span<const std::uint64_t> offsets_[2];
  std::span<const VertexId> adj_[2];
};

/// What one peeling pass removed.
struct PeelStats {
  std::uint64_t vertices_removed = 0;
  std::uint64_t edges_removed = 0;
};

/// Mutable CSR scratch for in-place sparse reduction: a re-indexed copy of
/// a graph (or of a vertex-induced subgraph) with O(1) live-degree
/// queries, queue-based core peeling, and O(|E|) compaction back into a
/// `BipartiteGraph` through `FromCsrLeft`, without an edge list or the
/// per-row sorts of `BipartiteGraph::FromEdges`.
///
/// Peeling kills vertices by tombstone: a dead vertex keeps its adjacency
/// entries but neighbour iteration skips dead endpoints, and `Degree`
/// always reports the live degree (maintained incrementally).
/// The object is designed for reuse — `Load`/`LoadSubgraph` recycle every
/// internal buffer, so a per-worker scratch amortises all allocation
/// across a scan of many centred subgraphs.
class CsrScratch {
 public:
  CsrScratch() = default;
  ~CsrScratch();
  /// The scratch tracks its bytes against a `MemoryBudget`; copying would
  /// double-release the charge, and nothing copies one anyway.
  CsrScratch(const CsrScratch&) = delete;
  CsrScratch& operator=(const CsrScratch&) = delete;

  /// Loads the whole of `g`. Old-id maps are the identity.
  void Load(const BipartiteGraph& g);

  /// Loads the subgraph of `g` induced by `left_keep` x `right_keep`
  /// (duplicate-free, any order). New ids follow list order, exactly as in
  /// `BipartiteGraph::Induce`, and per-vertex neighbour lists are sorted
  /// by new id. O(Σ deg(left_keep)) plus tiny per-row sorts.
  void LoadSubgraph(const BipartiteGraph& g,
                    std::span<const VertexId> left_keep,
                    std::span<const VertexId> right_keep);

  std::uint32_t NumVertices(Side side) const {
    return static_cast<std::uint32_t>(alive_[static_cast<int>(side)].size());
  }
  /// Vertices still alive on `side`.
  std::uint32_t NumAlive(Side side) const {
    return num_alive_[static_cast<int>(side)];
  }
  std::uint64_t num_live_edges() const { return live_edges_; }

  bool Alive(Side side, VertexId v) const {
    return alive_[static_cast<int>(side)][v] != 0;
  }
  /// Live degree (dead neighbours excluded). O(1).
  std::uint32_t Degree(Side side, VertexId v) const {
    return degree_[static_cast<int>(side)][v];
  }

  /// Old (source-graph) id of scratch vertex `v`.
  VertexId OldId(Side side, VertexId v) const {
    return old_id_[static_cast<int>(side)][v];
  }

  /// Calls `fn(VertexId)` for every live neighbour of `v`, in sorted order.
  template <typename Fn>
  void ForEachNeighbor(Side side, VertexId v, Fn&& fn) const {
    const int s = static_cast<int>(side);
    const int o = 1 - s;
    const std::uint64_t begin = offsets_[s][v];
    const std::uint64_t end = offsets_[s][v + 1];
    for (std::uint64_t i = begin; i < end; ++i) {
      const VertexId w = adj_[s][i];
      if (alive_[o][w] == 0) continue;
      fn(w);
    }
  }

  /// Peels the scratch to its k-core: repeatedly deletes vertices of live
  /// degree < k until every survivor has degree >= k (possibly none).
  /// The surviving vertex set is the k-core of the loaded graph, identical
  /// to filtering `ComputeCores` numbers at >= k.
  PeelStats PeelToCore(std::uint32_t k);

  /// Old ids of the live vertices on `side`, in scratch-id order (for
  /// `Load` that is ascending old id; for `LoadSubgraph` it is the keep
  /// lists' order, filtered).
  std::vector<VertexId> LiveOldIds(Side side) const;

  /// Compacts the live part into a fresh `BipartiteGraph` plus maps from
  /// its ids to the *source* graph's ids. Bit-identical to
  /// `source.Induce(LiveOldIds(kLeft), LiveOldIds(kRight))`, in O(|E|)
  /// with no sort.
  InducedSubgraph Compact() const;

 private:
  void Reset(std::uint32_t num_left, std::uint32_t num_right,
             std::uint64_t num_edges_hint);
  void BuildRightFromLeft();
  /// Re-points the scratch at the calling thread's `MemoryBudget` and
  /// charges `bytes` (approximate: the reserved buffer sizes), releasing
  /// whatever the previous load charged. Throws `ResourceExhaustedError`
  /// when the budget refuses.
  void RechargeBudget(std::uint64_t bytes);

  // Per side (0 = left, 1 = right):
  std::vector<std::uint64_t> offsets_[2];
  std::vector<VertexId> adj_[2];
  std::vector<std::uint32_t> degree_[2];
  std::vector<std::uint8_t> alive_[2];
  std::vector<VertexId> old_id_[2];
  std::uint32_t num_alive_[2] = {0, 0};
  std::uint64_t live_edges_ = 0;

  // LoadSubgraph scratch: old right id -> new id, stamped to avoid O(n)
  // clears between subgraphs.
  std::vector<VertexId> map_;
  std::vector<std::uint32_t> map_stamp_;
  std::uint32_t map_round_ = 0;

  // PeelToCore scratch.
  std::vector<std::pair<std::uint8_t, VertexId>> peel_queue_;

  // Memory-budget accounting (see engine/budget.h). Held shared so the
  // release in the destructor stays valid even when the scratch outlives
  // the solve's budget scope.
  std::shared_ptr<class MemoryBudget> budget_;
  std::uint64_t charged_bytes_ = 0;
};

/// Drop-in replacement for `BipartiteGraph::Induce` routed through a
/// reusable `CsrScratch`: the same `InducedSubgraph` bit for bit, built in
/// O(Σ deg(left_keep)) with reused buffers and no edge list. This is the
/// sparse path's workhorse for the step-2 bridge scan and the step-1
/// reduction.
InducedSubgraph CsrInduce(const BipartiteGraph& g,
                          std::span<const VertexId> left_keep,
                          std::span<const VertexId> right_keep,
                          CsrScratch& scratch);

}  // namespace mbb

#endif  // MBB_GRAPH_CSR_H_
