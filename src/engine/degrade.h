#ifndef MBB_ENGINE_DEGRADE_H_
#define MBB_ENGINE_DEGRADE_H_

/// Anytime degradation: turn a solve that died of resource exhaustion into
/// the best answer available instead of an empty error.
///
/// The exact solvers already return their best incumbent when a deadline,
/// recursion cap, or external cancellation trips (`exact:false` plus a
/// `stop_cause`). Allocation failure is the one limit that *throws*
/// instead — `SolveAnytime` closes that gap: it catches `bad_alloc` /
/// `ResourceExhaustedError` from the dispatched solve, substitutes the
/// near-linear greedy incumbent (the step-1 heuristic of Algorithm 4, run
/// outside the budget), and reports `exact:false` with
/// `StopCause::kResourceExhausted`. Every other exception still
/// propagates: a solver bug should fail loudly, not pose as an answer.

#include <string_view>

#include "engine/registry.h"

namespace mbb {

/// A cheap best-effort incumbent for `g`: degree-scored greedy, balanced,
/// valid in `g`. Never throws; returns an empty biclique when even the
/// greedy cannot run (it allocates only vectors, so that means real OOM).
Biclique HeuristicIncumbent(const BipartiteGraph& g);

/// True when a degraded answer of solver `name` may carry the
/// `HeuristicIncumbent`. False for `sizecon`: its witness must meet the
/// (a, b) floor, which the greedy cannot promise, so it degrades to an
/// empty answer instead.
bool DegradesToGreedy(std::string_view name);

/// `SolverRegistry::Solve` with the resource-exhaustion path converted
/// into a degraded anytime result as described above.
MbbResult SolveAnytime(std::string_view name, const BipartiteGraph& g,
                       const SolverOptions& options);

}  // namespace mbb

#endif  // MBB_ENGINE_DEGRADE_H_
