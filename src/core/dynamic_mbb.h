#ifndef MBB_CORE_DYNAMIC_MBB_H_
#define MBB_CORE_DYNAMIC_MBB_H_

#include <cstdint>
#include <span>

#include "core/complement_decomposition.h"
#include "core/stats.h"
#include "graph/dense_subgraph.h"

namespace mbb {

/// The paper's Algorithm 2 (`dynamicMBB`): polynomial-time exact solver for
/// a candidate subgraph satisfying Lemma 3. Combines the per-component
/// Pareto frontiers of the complement path/cycle decomposition with the
/// trivial (fully connected) part via a knapsack-style dynamic program,
/// maximizing `min(|A|+a, |B|+b)` over all achievable `(a, b)`.
///
/// `partial_a` / `partial_b` are the vertices already fixed into the
/// biclique by the surrounding search; every candidate in the
/// decomposition is adjacent to all of them by the search invariant.
///
/// Returns `improved == false` when no extension beats `lower_bound`
/// (balanced side size); otherwise `best` holds a balanced biclique of
/// size `> lower_bound`, in the subgraph's local ids.
struct DynamicMbbOutcome {
  bool improved = false;
  Biclique best;
};

DynamicMbbOutcome DynamicMbbSolve(const DenseSubgraph& g,
                                  std::span<const VertexId> partial_a,
                                  std::span<const VertexId> partial_b,
                                  const ComplementDecomposition& dec,
                                  std::uint32_t lower_bound);

/// Convenience wrapper: checks the Lemma 3 condition on `(ca, cb)` and, if
/// polynomially solvable, runs the DP. `improved` is false either when the
/// condition fails (`*polynomial` = false) or when nothing beats the bound.
/// `ca`/`cb` are bitset views — a `BitRow` or a `BitMatrix` row both
/// convert.
DynamicMbbOutcome TryDynamicMbb(const DenseSubgraph& g,
                                std::span<const VertexId> partial_a,
                                std::span<const VertexId> partial_b,
                                BitSpan ca, BitSpan cb,
                                std::uint32_t lower_bound, bool* polynomial);

}  // namespace mbb

#endif  // MBB_CORE_DYNAMIC_MBB_H_
