#ifndef MBB_BASELINES_FMBE_H_
#define MBB_BASELINES_FMBE_H_

#include "core/stats.h"
#include "graph/bipartite_graph.h"

namespace mbb {

/// Adapted FMBE [Das & Tirthapura 2019], built the way the paper's §6
/// constructs its baselines. FMBE's key idea is kept: before enumerating
/// the bicliques involving a vertex, the search scope is reduced to the
/// vertex's 2-hop neighbourhood, with a global (non-increasing degree)
/// total order for duplicate avoidance. The maximality/duplication
/// bookkeeping of the original is replaced by incumbent-based pruning: a
/// scope whose sides cannot exceed the best balanced biclique is skipped,
/// and the per-scope search is an anchored alternating branch-and-bound
/// with the incumbent as lower bound.
///
/// Exact; result in `g`'s ids. The per-scope searches fan out across
/// `num_threads` workers (0 = one per hardware thread): each scope
/// snapshots a shared atomic incumbent when claimed, the stop token and
/// deadline are checked before each scope, and the first search a limit
/// interrupts stops the whole fleet, whose best biclique so far is still
/// returned. The returned size matches the one-thread run; between
/// equally-sized optima the witness may differ with interleaving, unless
/// `deterministic` (`ExecPolicy::deterministic`) freezes every scope's
/// snapshot at `initial_best`: the witness and counters are then the same
/// on every run at a given thread count.
MbbResult FmbeSolve(const BipartiteGraph& g, const SearchLimits& limits = {},
                    std::uint32_t initial_best = 0,
                    std::uint32_t num_threads = 1,
                    bool deterministic = false);

}  // namespace mbb

#endif  // MBB_BASELINES_FMBE_H_
