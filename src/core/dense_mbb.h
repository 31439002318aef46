#ifndef MBB_CORE_DENSE_MBB_H_
#define MBB_CORE_DENSE_MBB_H_

#include "core/stats.h"
#include "graph/dense_subgraph.h"

namespace mbb {

class SearchContext;

/// Configuration of the paper's Algorithm 3 (`denseMBB`). The defaults are
/// the full algorithm; the switches exist for the paper's ablation variants
/// (Table 3 / Table 6):
///  * `use_reductions` — Lemma 1 (all-connection promotion) and Lemma 2
///    (low-degree deletion), applied to fixpoint at every recursion.
///  * `use_poly_case` — detect Lemma 3 subproblems (every candidate misses
///    at most 2 cross-side neighbours) and solve them with Algorithm 2.
///  * `use_missing_branching` — triviality-last branching: branch on a
///    vertex missing the most (>= 3) neighbours, which yields the (4,1)
///    branching factor behind the O*(1.3803^n) bound. When disabled the
///    searcher branches on the first candidate of the larger side.
/// The inherited `ExecPolicy` sets the limits and the subtree layer.
struct DenseMbbOptions : ExecPolicy {
  bool use_reductions = true;
  bool use_poly_case = true;
  bool use_missing_branching = true;
  /// König bound: prune when |A|+|B|+|CA|+|CB| minus a maximum matching of
  /// the candidates' bipartite complement cannot reach 2(best+1). One of
  /// the "obvious prunings" §4.2 leaves unstated; see DESIGN.md.
  bool use_matching_bound = true;
  /// When non-null, the searcher prunes against this shared incumbent in
  /// addition to its own: the bound is re-read at every recursion entry and
  /// raised whenever a better biclique is recorded, so concurrent searchers
  /// (the parallel verifyMBB fan-out) tighten each other immediately. The
  /// pointee must outlive the solve call; null (the default) keeps the
  /// searcher fully self-contained.
  SharedBound* shared_bound = nullptr;
};

/// Runs denseMBB on the whole subgraph. `initial_best` is a balanced-size
/// lower bound: only strictly larger bicliques are reported. Result in
/// local ids; `exact == false` when a limit fired.
///
/// `context` pools the per-recursion-level candidate bitsets and the
/// matching-bound scratch; pass one shared `SearchContext` when solving
/// many subgraphs in a row (the sparse pipeline does), or nullptr to use a
/// transient context.
MbbResult DenseMbbSolve(const DenseSubgraph& g,
                        const DenseMbbOptions& options = {},
                        std::uint32_t initial_best = 0,
                        SearchContext* context = nullptr);

/// Anchored variant used by the sparse pipeline's verification step
/// (Algorithm 8): left-local `anchor` is fixed into A, so only bicliques
/// containing it are searched.
MbbResult DenseMbbSolveAnchored(const DenseSubgraph& g, VertexId anchor,
                                const DenseMbbOptions& options = {},
                                std::uint32_t initial_best = 0,
                                SearchContext* context = nullptr);

}  // namespace mbb

#endif  // MBB_CORE_DENSE_MBB_H_
