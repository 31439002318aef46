#ifndef MBB_ORDER_CORE_DECOMPOSITION_H_
#define MBB_ORDER_CORE_DECOMPOSITION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"

namespace mbb {

/// Result of the classic O(|E|) core decomposition (Batagelj–Zaversnik
/// bucket peeling) applied to a bipartite graph over the single global
/// vertex index space (`BipartiteGraph::GlobalIndex`).
struct CoreDecomposition {
  /// `core[g]` is the core number of global vertex `g`.
  std::vector<std::uint32_t> core;
  /// Degeneracy `δ(G)` — the maximum core number (0 for empty graphs).
  std::uint32_t degeneracy = 0;
  /// Peeling order (a degeneracy order): `order[i]` is the global index of
  /// the i-th removed vertex; each removed vertex has minimum degree in the
  /// residual graph.
  std::vector<std::uint32_t> order;
};

/// Computes core numbers, degeneracy and a degeneracy order of `g`.
CoreDecomposition ComputeCores(const BipartiteGraph& g);

/// Vertices of the k-core of `g`, split per side. A vertex belongs to the
/// k-core iff its core number is at least `k`. Lists are sorted by id.
struct KCoreVertices {
  std::vector<VertexId> left;
  std::vector<VertexId> right;
};
KCoreVertices KCore(const CoreDecomposition& cores, const BipartiteGraph& g,
                    std::uint32_t k);

}  // namespace mbb

#endif  // MBB_ORDER_CORE_DECOMPOSITION_H_
