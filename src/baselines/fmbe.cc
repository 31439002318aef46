#include "baselines/fmbe.h"

#include <algorithm>
#include <cstddef>
#include <memory>
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
/// sound, so the reduced size is the same at any worker count.
MbbResult FmbeSolve(const BipartiteGraph& g, const SearchLimits& limits,
                    std::uint32_t initial_best, std::uint32_t num_threads) {
  const VertexOrder order = ComputeVertexOrder(g, VertexOrderKind::kDegree);
  const std::size_t num_workers =
      EffectiveThreadCount(num_threads, order.order.size());
  MbbResult out;
  out.stats.terminated_step = 0;

  SharedBound shared_bound(initial_best);
  SearchLimits task_limits = limits;
  if (task_limits.stop_token == nullptr) {
    // One token for the whole fleet: the first worker a limit interrupts
    // trips it, and the rest abort at their next limit check.
    task_limits.stop_token = std::make_shared<StopToken>();
  }
  const std::shared_ptr<StopToken>& stop = task_limits.stop_token;

  struct ScopeResult {
    Biclique best;
    std::uint32_t best_size = 0;
  };
  struct WorkerState {
    CenteredWorkspace workspace;
    SearchContext ctx;
    SearchStats stats;
    bool exact = true;
  };
  std::vector<WorkerState> workers(num_workers);
  std::vector<ScopeResult> results(order.order.size());

  ParallelFor(
      num_workers, order.order.size(),
      [&](std::size_t worker, std::size_t item) {
        WorkerState& state = workers[worker];
        ++state.stats.subgraphs_total;
        if (stop->StopRequested()) {
          // Drain cheaply: claimed after the stop, never searched.
          ++state.stats.subgraphs_skipped;
          state.exact = false;
          return;
        }
        const std::uint32_t snapshot = shared_bound.Load();
        const CenteredSubgraph s = BuildCenteredSubgraph(
            g, order, order.order[item], state.workspace);
        if (std::min(s.same_side.size(), s.other_side.size()) <= snapshot) {
          ++state.stats.subgraphs_pruned_size;
          return;
        }
        const DenseSubgraph dense = DenseSubgraph::Build(
            g, s.same_side, s.other_side, s.center_side);
        ++state.stats.subgraphs_searched;
        MbbResult scoped = BasicBbSolveAnchored(dense, /*anchor=*/0,
                                                task_limits, snapshot,
                                                &state.ctx);
        state.stats.Merge(scoped.stats);
        if (!scoped.exact) {
          state.exact = false;
          // The first interrupted scope aborts the whole scan; the best
          // biclique it found so far is still recorded below.
          stop->RequestStop(scoped.stats.stop_cause == StopCause::kNone
                                ? StopCause::kExternal
                                : scoped.stats.stop_cause);
        }
        if (scoped.best.BalancedSize() > snapshot) {
          results[item].best = dense.ToOriginal(scoped.best);
          results[item].best_size = scoped.best.BalancedSize();
          shared_bound.RaiseTo(results[item].best_size);
        }
      });

  for (WorkerState& state : workers) {
    out.stats.Merge(state.stats);
    if (!state.exact) out.exact = false;
  }
  if (out.stats.stop_cause == StopCause::kNone && stop->StopRequested()) {
    out.stats.stop_cause = stop->cause();
  }

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
