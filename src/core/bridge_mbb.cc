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

/// One centre's scan result, written by the one worker that scanned it.
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
};

struct CenterWorker {
  CenteredWorkspace workspace;
  CsrScratch scratch;
};

}  // namespace

/// The centred-subgraph scan runs as an `IncumbentScan`: a centre pruned
/// against any incumbent snapshot can never carry a biclique beating the
/// final bound, so the final incumbent size and the survivor set are the
/// same at any timing, and under `deterministic` so are the witness and
/// the counters.
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
  std::vector<CenterScan> results(num_centers);
  IncumbentScan<CenterWorker> scan(options.limits, options.num_threads,
                                   options.deterministic, num_centers,
                                   initial_best_size, context);

  out.exact = scan.Run(
      [&](IncumbentScan<CenterWorker>::Item& item) -> std::uint32_t {
        CenterScan& slot = results[item.index];
        CenteredSubgraph s = BuildCenteredSubgraph(
            reduced, order, order.order[item.index], item.state.workspace);
        // Line 4-6: size pruning — a biclique beating the incumbent needs
        // at least bound + 1 vertices on each side.
        const SideLists lists = Split(s);
        if (std::min(lists.left->size(), lists.right->size()) <=
            item.bound) {
          slot.outcome = CenterScan::Outcome::kPrunedSize;
          return 0;
        }
        // Lines 7-10: degeneracy pruning. A (k+1) x (k+1) biclique forces
        // a subgraph of minimum degree k+1, so δ(H) <= k rules improvement
        // out.
        InducedSubgraph induced = CsrInduce(reduced, *lists.left,
                                            *lists.right, item.state.scratch);
        if (options.use_degeneracy_pruning) {
          slot.degeneracy = ComputeCores(induced.graph).degeneracy;
          if (slot.degeneracy <= item.bound) {
            slot.outcome = CenterScan::Outcome::kPrunedDegeneracy;
            return 0;
          }
        }
        slot.outcome = CenterScan::Outcome::kKept;
        slot.subgraph = std::move(s);
        // Lines 11-13: local heuristic on H. Any biclique of H is a
        // biclique of the reduced graph, so improvements are global.
        if (!options.use_local_heuristic) return 0;
        std::vector<std::uint32_t>& scores = item.ctx.ScoreScratch();
        DegreeScoresInto(induced.graph, scores);
        Biclique local = GreedyMbb(induced.graph, scores, options.greedy);
        if (local.BalancedSize() <= item.bound) return 0;
        for (VertexId& l : local.left) l = induced.left_to_old[l];
        for (VertexId& r : local.right) r = induced.right_to_old[r];
        slot.improvement = std::move(local);
        return slot.improvement.BalancedSize();
      },
      out.stats);

  if (const std::size_t winner = scan.Winner(); winner < num_centers) {
    out.best = std::move(results[winner].improvement);
    out.best_size = out.best.BalancedSize();
    out.improved = true;
  }

  // Bucket every centre (the scan's shards counted the skipped ones),
  // re-filtering the kept ones against the final incumbent in rank order:
  // heuristic hits later in the scan can retroactively prune earlier
  // survivors. A stopped scan hands step 3 nothing, so what survives it
  // counts as skipped: every centre lands in exactly one bucket.
  out.stats.subgraphs_total = num_centers;
  for (CenterScan& slot : results) {
    using enum CenterScan::Outcome;
    if (slot.outcome == kKept) {
      const SideLists lists = Split(slot.subgraph);
      if (std::min(lists.left->size(), lists.right->size()) <=
          out.best_size) {
        slot.outcome = kPrunedSize;
      } else if (options.use_degeneracy_pruning &&
                 slot.degeneracy <= out.best_size) {
        slot.outcome = kPrunedDegeneracy;
      }
    }
    switch (slot.outcome) {
      case kSkipped:
        break;
      case kPrunedSize:
        ++out.stats.subgraphs_pruned_size;
        break;
      case kPrunedDegeneracy:
        ++out.stats.subgraphs_pruned_degeneracy;
        break;
      case kKept:
        if (!out.exact) {
          ++out.stats.subgraphs_skipped;
        } else {
          out.survivors.push_back(std::move(slot.subgraph));
        }
        break;
    }
  }
  return out;
}

}  // namespace mbb
