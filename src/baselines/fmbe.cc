#include "baselines/fmbe.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/basic_bb.h"
#include "engine/parallel.h"
#include "engine/search_context.h"
#include "graph/dense_subgraph.h"
#include "order/vertex_centered.h"

namespace mbb {

/// Workers claim scopes from a shared counter, each with its own
/// workspace, pooled context, and stats shard; one worker is the plain
/// in-order scan. basicBB has no shared-bound hook, so the incumbent is
/// snapshotted once per scope at claim time; improvements published through
/// the shared bound are picked up by every scope claimed after them.
/// Pruning against any bound between the initial and final incumbent is
/// sound, so the reduced size is the same at any worker count. In
/// deterministic mode with several workers every snapshot is frozen at
/// `initial_best`, as in `BridgeMbb`: each scope's search, and so every
/// counter, no longer depends on which scopes finished first.
MbbResult FmbeSolve(const BipartiteGraph& g, const SearchLimits& limits,
                    std::uint32_t initial_best, std::uint32_t num_threads,
                    bool deterministic) {
  const VertexOrder order = ComputeVertexOrder(g, VertexOrderKind::kDegree);
  const std::size_t num_workers =
      EffectiveThreadCount(num_threads, order.order.size());
  // One worker's live snapshot is already timing-independent.
  const bool frozen = deterministic && num_workers > 1;
  MbbResult out;
  out.stats.terminated_step = 0;

  SharedBound shared_bound(initial_best);
  SearchLimits task_limits = limits;
  FleetStop fleet(task_limits, num_workers);

  struct ScopeResult {
    Biclique best;
    std::uint32_t best_size = 0;
  };
  struct WorkerState {
    CenteredWorkspace workspace;
    SearchContext ctx;
  };
  std::vector<WorkerState> workers(num_workers);
  std::vector<ScopeResult> results(order.order.size());

  ParallelFor(
      num_workers, order.order.size(),
      [&](std::size_t worker, std::size_t item) {
        WorkerState& state = workers[worker];
        SearchStats& stats = fleet.shard(worker);
        ++stats.subgraphs_total;
        if (fleet.SkipIfStopped(worker)) return;
        const std::uint32_t snapshot =
            frozen ? initial_best : shared_bound.Load();
        const CenteredSubgraph s = BuildCenteredSubgraph(
            g, order, order.order[item], state.workspace);
        if (std::min(s.same_side.size(), s.other_side.size()) <= snapshot) {
          ++stats.subgraphs_pruned_size;
          return;
        }
        const DenseSubgraph dense = DenseSubgraph::Build(
            g, s.same_side, s.other_side, s.center_side);
        ++stats.subgraphs_searched;
        MbbResult scoped = BasicBbSolveAnchored(dense, /*anchor=*/0,
                                                task_limits, snapshot,
                                                &state.ctx);
        stats.Merge(scoped.stats);
        // The first interrupted scope aborts the whole scan; the best
        // biclique it found so far is still recorded below.
        fleet.Report(scoped);
        if (scoped.best.BalancedSize() > snapshot) {
          results[item].best = dense.ToOriginal(scoped.best);
          results[item].best_size = scoped.best.BalancedSize();
          if (!frozen) shared_bound.RaiseTo(results[item].best_size);
        }
      });
  out.exact = fleet.Finish(out.stats);

  // Reduce: the lowest-index recorded improvement at the global maximum
  // wins (the order-first winner among the scopes that recorded one).
  std::uint32_t best_size = initial_best;
  for (ScopeResult& result : results) {
    if (result.best_size > best_size) {
      best_size = result.best_size;
      out.best = std::move(result.best);
    }
  }
  out.best.MakeBalanced();
  return out;
}

}  // namespace mbb
