#include "core/bridge_mbb.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/parallel.h"
#include "engine/search_context.h"
#include "graph/csr.h"
#include "order/core_decomposition.h"

namespace mbb {

namespace {

/// Left/right vertex lists of a centred subgraph in the reduced graph's id
/// space (the centre lives in `left` when its side is kLeft, etc.).
struct SideLists {
  const std::vector<VertexId>* left;
  const std::vector<VertexId>* right;
};

SideLists Split(const CenteredSubgraph& s) {
  if (s.center_side == Side::kLeft) {
    return {&s.same_side, &s.other_side};
  }
  return {&s.other_side, &s.same_side};
}

/// One centre's scan result. Slots are written by exactly one worker and
/// reduced on the caller in rank order, which is what makes the scan's
/// answer independent of worker timing.
struct CenterScan {
  enum class Outcome : std::uint8_t {
    kSkipped,  // never scanned: a limit fired first
    kKept,
    kPrunedSize,
    kPrunedDegeneracy,
  };
  Outcome outcome = Outcome::kSkipped;
  CenteredSubgraph subgraph;         // only populated when kept
  std::uint32_t degeneracy = 0;      // of the induced subgraph (re-filter)
  Biclique improvement;              // reduced-graph ids; empty when none
  std::uint32_t improvement_size = 0;
};

}  // namespace

/// The centred-subgraph scan, fanned out over the workers (one worker is
/// the plain in-order scan). Correctness note: a centre pruned against
/// *any* incumbent snapshot (which is always >= the incoming bound and <=
/// the final bound) can never carry a biclique beating the final bound, so
/// pruning against a concurrently raised snapshot loses nothing; and
/// whoever first raises the shared snapshot to the maximum recorded its own
/// improvement, so the maximal size always survives to the reduce. The
/// final incumbent size and the survivor set are therefore the same at any
/// timing. In deterministic mode with several workers the snapshots are
/// frozen at the incoming bound, every maximal centre records, and the
/// rank-order reduce picks the lowest rank: the one-worker witness.
BridgeOutcome BridgeMbb(const BipartiteGraph& reduced,
                        std::uint32_t initial_best_size,
                        const BridgeOptions& options,
                        SearchContext* context) {
  BridgeOutcome out;
  out.best_size = initial_best_size;
  out.stats.terminated_step = 2;

  // Line 1-2: order + vertex-centred subgraphs.
  const VertexOrder order = ComputeVertexOrder(reduced, options.order);
  const std::size_t num_centers = order.order.size();
  const std::size_t num_workers =
      EffectiveThreadCount(options.num_threads, num_centers);
  // One worker's live snapshot is already timing-independent.
  const bool frozen = options.deterministic && num_workers > 1;
  std::vector<CenterScan> results(num_centers);
  SharedBound shared(initial_best_size);
  SearchLimits limits = options.limits;
  FleetStop fleet(limits, num_workers);

  struct WorkerState {
    CenteredWorkspace workspace;
    SearchContext ctx;
    CsrScratch scratch;
  };
  std::vector<WorkerState> workers(num_workers);

  ParallelFor(num_workers, num_centers, [&](std::size_t worker,
                                            std::size_t item) {
    // A deadline seen here trips the fleet's token for every worker. The
    // clock is read only when a deadline is set, and the watchdog heartbeat
    // (`StopToken::Touch`) is left to the searches: one shared counter
    // bumped per centre would bounce its cache line between the workers.
    if (limits.DeadlinePassed()) {
      limits.stop_token->RequestStop(StopCause::kDeadline);
    }
    if (fleet.SkipIfStopped(worker)) return;
    WorkerState& ws = workers[worker];
    CenterScan& slot = results[item];
    const std::uint32_t snapshot =
        frozen ? initial_best_size : shared.Load();
    CenteredSubgraph s = BuildCenteredSubgraph(reduced, order,
                                               order.order[item],
                                               ws.workspace);
    // Line 4-6: size pruning — a biclique beating the incumbent needs at
    // least snapshot + 1 vertices on each side.
    const SideLists lists = Split(s);
    if (std::min(lists.left->size(), lists.right->size()) <= snapshot) {
      slot.outcome = CenterScan::Outcome::kPrunedSize;
      return;
    }
    // Lines 7-10: degeneracy pruning. A (k+1) x (k+1) biclique forces a
    // subgraph of minimum degree k+1, so δ(H) <= k rules improvement out.
    InducedSubgraph induced =
        CsrInduce(reduced, *lists.left, *lists.right, ws.scratch);
    if (options.use_degeneracy_pruning) {
      slot.degeneracy = ComputeCores(induced.graph).degeneracy;
      if (slot.degeneracy <= snapshot) {
        slot.outcome = CenterScan::Outcome::kPrunedDegeneracy;
        return;
      }
    }
    // Lines 11-13: local heuristic on H. Any biclique of H is a biclique of
    // the reduced graph, so improvements are global. Worker 0 is the
    // caller's thread and pools its score scratch in `context`.
    if (options.use_local_heuristic) {
      SearchContext& ctx =
          worker == 0 && context != nullptr ? *context : ws.ctx;
      std::vector<std::uint32_t>& scores = ctx.ScoreScratch();
      DegreeScoresInto(induced.graph, scores);
      Biclique local = GreedyMbb(induced.graph, scores, options.greedy);
      if (local.BalancedSize() > snapshot) {
        slot.improvement_size = local.BalancedSize();
        for (VertexId& l : local.left) l = induced.left_to_old[l];
        for (VertexId& r : local.right) r = induced.right_to_old[r];
        slot.improvement = std::move(local);
        if (!frozen) shared.RaiseTo(slot.improvement_size);
      }
    }
    slot.outcome = CenterScan::Outcome::kKept;
    slot.subgraph = std::move(s);
  });

  // Rank-order reduce: adopt strictly-greater improvements (the first
  // maximal winner in scan order) and bucket the prunes. Skipped centres
  // were counted in the fleet's shards.
  out.stats.subgraphs_total = num_centers;
  out.exact = fleet.Finish(out.stats);
  for (CenterScan& slot : results) {
    switch (slot.outcome) {
      case CenterScan::Outcome::kSkipped:
        break;
      case CenterScan::Outcome::kPrunedSize:
        ++out.stats.subgraphs_pruned_size;
        break;
      case CenterScan::Outcome::kPrunedDegeneracy:
        ++out.stats.subgraphs_pruned_degeneracy;
        break;
      case CenterScan::Outcome::kKept:
        if (slot.improvement_size > out.best_size) {
          out.best_size = slot.improvement_size;
          out.improved = true;
          out.best = std::move(slot.improvement);
        }
        break;
    }
  }

  // Re-filter survivors against the final incumbent, in rank order:
  // heuristic hits later in the scan can retroactively prune earlier
  // survivors. A stopped scan hands step 3 nothing, so what survives it
  // counts as skipped: every centre lands in exactly one bucket.
  for (CenterScan& slot : results) {
    if (slot.outcome != CenterScan::Outcome::kKept) continue;
    const SideLists lists = Split(slot.subgraph);
    if (std::min(lists.left->size(), lists.right->size()) <= out.best_size) {
      ++out.stats.subgraphs_pruned_size;
      continue;
    }
    if (options.use_degeneracy_pruning &&
        slot.degeneracy <= out.best_size) {
      ++out.stats.subgraphs_pruned_degeneracy;
      continue;
    }
    if (!out.exact) {
      ++out.stats.subgraphs_skipped;
      continue;
    }
    out.survivors.push_back(std::move(slot.subgraph));
  }
  return out;
}

}  // namespace mbb
