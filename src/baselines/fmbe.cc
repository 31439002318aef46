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

namespace {

struct ScopeWorker {
  CenteredWorkspace workspace;
};

}  // namespace

/// The scope scan runs as an `IncumbentScan`. basicBB has no shared-bound
/// hook, so each scope prunes against its item's bound for its whole
/// search; improvements raise the bound for scopes claimed after them.
MbbResult FmbeSolve(const BipartiteGraph& g, const SearchLimits& limits,
                    std::uint32_t initial_best, std::uint32_t num_threads,
                    bool deterministic) {
  const VertexOrder order = ComputeVertexOrder(g, VertexOrderKind::kDegree);
  const std::size_t num_scopes = order.order.size();
  MbbResult out;
  out.stats.terminated_step = 0;

  std::vector<Biclique> results(num_scopes);  // improvements, in g's ids
  IncumbentScan<ScopeWorker> scan(limits, num_threads, deterministic,
                                  num_scopes, initial_best, nullptr);
  out.exact = scan.Run(
      [&](IncumbentScan<ScopeWorker>::Item& item) -> std::uint32_t {
        const CenteredSubgraph s = BuildCenteredSubgraph(
            g, order, order.order[item.index], item.state.workspace);
        if (std::min(s.same_side.size(), s.other_side.size()) <=
            item.bound) {
          ++item.stats.subgraphs_pruned_size;
          return 0;
        }
        const DenseSubgraph dense = DenseSubgraph::Build(
            g, s.same_side, s.other_side, s.center_side);
        ++item.stats.subgraphs_searched;
        MbbResult scoped = BasicBbSolveAnchored(
            dense, /*anchor=*/0, scan.limits(), item.bound, &item.ctx);
        item.stats.Merge(scoped.stats);
        // The first interrupted scope aborts the whole scan; the best
        // biclique it found so far is still recorded.
        item.fleet.Report(scoped);
        if (scoped.best.BalancedSize() <= item.bound) return 0;
        results[item.index] = dense.ToOriginal(scoped.best);
        return results[item.index].BalancedSize();
      },
      out.stats);
  out.stats.subgraphs_total = num_scopes;
  if (const std::size_t winner = scan.Winner(); winner < num_scopes) {
    out.best = std::move(results[winner]);
  }
  out.best.MakeBalanced();
  return out;
}

}  // namespace mbb
