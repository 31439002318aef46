#ifndef MBB_ORDER_BICORE_DECOMPOSITION_H_
#define MBB_ORDER_BICORE_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"

namespace mbb {

/// Result of the paper's bicore decomposition (Algorithm 7): the bipartite
/// analogue of core numbers built on `N≤2(u)` — the union of a vertex's
/// 1-hop and 2-hop neighbourhoods (Definitions 1–4).
struct BicoreDecomposition {
  /// `bicore[g]` is the bicore number `bc(u)` of global vertex `g`.
  std::vector<std::uint32_t> bicore;
  /// Bidegeneracy `δ̈(G)` — the maximum bicore number (0 for empty graphs).
  std::uint32_t bidegeneracy = 0;
  /// A bidegeneracy order (Definition 5): `order[i]` is the global index of
  /// the i-th peeled vertex; each peeled vertex has minimum `|N≤2|` in the
  /// residual graph, with ties broken by minimum residual degree (the
  /// Lemma 10 schedule that keeps per-peel bookkeeping O(1) per affected
  /// vertex).
  std::vector<std::uint32_t> order;
  /// Initial `|N≤2(u)|` per global vertex in the full graph (useful for
  /// diagnostics and tests).
  std::vector<std::uint32_t> initial_n2_size;
};

/// Computes the bicore decomposition of `g`.
///
/// Runs the peeling of Algorithm 7: repeatedly remove the vertex with the
/// smallest residual `|N≤2|` (ties: smallest residual degree, then smallest
/// global index) and decrement `|N≤2(v)|` by one for every `v ∈ N≤2(u)` —
/// the paper's Lemma 10 unit-decrement schedule. The queue is an indexed
/// 4-ary min-heap on that key; keys only fall, so each update is one
/// sift-up. Complexity `O(Σ_u Σ_{v∈N(u)} deg(v))` for neighbourhood
/// enumeration plus `O(Σ|N≤2| log n)` for the priority maintenance.
///
/// Reproduction note: Lemma 10's claim that the unit decrement is exact
/// does not hold on all inputs — when the peeled vertex is the *sole*
/// common neighbour of two vertices, both lose a 2-hop neighbour in
/// addition to any 1-hop loss. The unit-decrement values are therefore
/// upper bounds on the true residual `|N≤2|`; everything the paper uses
/// bicores for (the bidegeneracy search order and the Lemma 8 size bound
/// on vertex-centred subgraphs) remains correct with upper bounds.
/// tests/test_bicore_decomposition.cc checks the bound against a naive
/// peel that recomputes `|N≤2|` exactly, and shows an input where it is
/// strict.
BicoreDecomposition ComputeBicores(const BipartiteGraph& g);

/// `|N≤2(u)|` for every global vertex of `g` (no peeling). Exposed for
/// tests and for the `N≤2`-based subgraph extraction.
std::vector<std::uint32_t> ComputeN2Sizes(const BipartiteGraph& g);

}  // namespace mbb

#endif  // MBB_ORDER_BICORE_DECOMPOSITION_H_
