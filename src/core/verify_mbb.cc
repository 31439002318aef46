#include "core/verify_mbb.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/basic_bb.h"
#include "engine/parallel.h"
#include "engine/search_context.h"
#include "graph/csr.h"

namespace mbb {

namespace {

struct SurvivorWorker {
  CsrScratch scratch;
};

using SurvivorScan = IncumbentScan<SurvivorWorker>;

/// Lines 2-5 of Algorithm 8 for one survivor: stale pruning, core
/// reduction, and the anchored exhaustive search, all against the item's
/// bound. `dense_options` arrives with the scan's limits (and, when
/// shared, its live bound) installed. Returns the improvement found, in
/// the reduced graph's ids, or an empty biclique.
Biclique ProcessSurvivor(const BipartiteGraph& reduced,
                         const CenteredSubgraph& s,
                         const VerifyOptions& options,
                         const DenseMbbOptions& dense_options,
                         SurvivorScan::Item& item) {
  const std::uint32_t best_size = item.bound;
  SearchStats& stats = item.stats;

  // Stale pruning: the incumbent may have grown since step 2, through
  // earlier survivors' searches.
  if (std::min(s.same_side.size(), s.other_side.size()) <= best_size) {
    ++stats.subgraphs_pruned_size;
    return {};
  }

  // The subgraph is canonicalized so the centre is left-local 0: "left"
  // is the centre's side.
  std::vector<VertexId> center_side_vertices = s.same_side;
  std::vector<VertexId> other_side_vertices = s.other_side;

  if (options.use_core_reduction) {
    // Line 2: reduce H to its (best_size+1)-core. Skip the subgraph
    // entirely when the centre falls out — bicliques not containing the
    // centre are covered by other centred subgraphs.
    const std::vector<VertexId>* left_list = &center_side_vertices;
    const std::vector<VertexId>* right_list = &other_side_vertices;
    if (s.center_side == Side::kRight) std::swap(left_list, right_list);
    // Peel H in place on the CSR scratch. An empty core is exactly the
    // δ(H) <= best_size degeneracy prune.
    CsrScratch& scratch = item.state.scratch;
    scratch.LoadSubgraph(reduced, *left_list, *right_list);
    scratch.PeelToCore(best_size + 1);
    if (scratch.NumAlive(Side::kLeft) == 0 ||
        scratch.NumAlive(Side::kRight) == 0) {
      ++stats.subgraphs_pruned_degeneracy;
      return {};
    }
    std::vector<VertexId> kept_left = scratch.LiveOldIds(Side::kLeft);
    std::vector<VertexId> kept_right = scratch.LiveOldIds(Side::kRight);
    stats.core_reduction_vertices_removed +=
        (left_list->size() + right_list->size()) -
        (kept_left.size() + kept_right.size());
    if (s.center_side == Side::kRight) std::swap(kept_left, kept_right);
    // kept_left is now on the centre's side again.
    if (std::find(kept_left.begin(), kept_left.end(), s.same_side[0]) ==
        kept_left.end()) {
      ++stats.subgraphs_pruned_size;
      return {};
    }
    // Keep the centre in front for the anchored search.
    std::erase(kept_left, s.same_side[0]);
    kept_left.insert(kept_left.begin(), s.same_side[0]);
    center_side_vertices = std::move(kept_left);
    other_side_vertices = std::move(kept_right);
    if (std::min(center_side_vertices.size(), other_side_vertices.size()) <=
        best_size) {
      ++stats.subgraphs_pruned_size;
      return {};
    }
  }

  // Lines 3-5: the representation switch — only the compacted kernel is
  // materialised in dense BitMatrix form for the anchored search.
  ++stats.sparse_to_dense_switches;
  const DenseSubgraph dense = DenseSubgraph::Build(
      reduced, center_side_vertices, other_side_vertices, s.center_side);
  ++stats.subgraphs_searched;

  MbbResult result;
  if (options.use_dense_search) {
    result = DenseMbbSolveAnchored(dense, /*anchor=*/0, dense_options,
                                   best_size, &item.ctx);
  } else {
    result = BasicBbSolveAnchored(dense, /*anchor=*/0, dense_options.limits,
                                  best_size, &item.ctx);
  }
  stats.Merge(result.stats);
  // The first inexact search — whatever its cause — aborts the whole
  // scan; survivors claimed after it count as skipped.
  item.fleet.Report(result);
  if (result.best.BalancedSize() <= best_size) return {};
  return dense.ToOriginal(result.best);
}

}  // namespace

/// The survivor fan-out runs as an `IncumbentScan`.
VerifyOutcome VerifyMbb(const BipartiteGraph& reduced,
                        std::uint32_t initial_best_size,
                        std::span<const CenteredSubgraph> survivors,
                        const VerifyOptions& options,
                        SearchContext* context) {
  VerifyOutcome out;
  out.best_size = initial_best_size;
  out.stats.terminated_step = 3;

  SurvivorScan scan(options.dense.limits, options.num_threads,
                    options.dense.deterministic, survivors.size(),
                    initial_best_size, context);
  DenseMbbOptions dense_options = options.dense;
  dense_options.limits = scan.limits();
  // The fan-out is the parallelism here: with several workers the anchored
  // searches stay sequential inside (no nested work-stealing) and prune
  // against the scan's live bound mid-search. One worker gets no speedup
  // from the fan-out — a single hard survivor is exactly the
  // one-worst-case-query scenario — so it hands the requested threads to
  // the anchored search's work-stealing subtree layer instead.
  dense_options.num_threads =
      scan.num_workers() == 1 ? options.num_threads : 1;
  dense_options.shared_bound = scan.shared_bound();

  std::vector<Biclique> results(survivors.size());
  out.exact = scan.Run(
      [&](SurvivorScan::Item& item) {
        results[item.index] = ProcessSurvivor(reduced, survivors[item.index],
                                              options, dense_options, item);
        return results[item.index].BalancedSize();
      },
      out.stats);
  if (const std::size_t winner = scan.Winner(); winner < survivors.size()) {
    out.best = std::move(results[winner]);
    out.best_size = out.best.BalancedSize();
    out.improved = true;
  }
  return out;
}

}  // namespace mbb
