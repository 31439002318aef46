#include "core/verify_mbb.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/basic_bb.h"
#include "engine/parallel.h"
#include "engine/search_context.h"
#include "graph/csr.h"
#include "order/core_decomposition.h"

namespace mbb {

namespace {

/// What processing one survivor produced. Each survivor is handled by
/// exactly one worker, so these can be reduced after the join without
/// synchronization.
struct SurvivorResult {
  bool exact = true;
  /// Why the anchored search aborted when `!exact` (kNone otherwise).
  StopCause stop_cause = StopCause::kNone;
  /// Improvement found by the anchored search, in the reduced graph's ids;
  /// `best_size == 0` means none.
  Biclique best;
  std::uint32_t best_size = 0;
};

/// Lines 2-5 of Algorithm 8 for one survivor: stale pruning, core
/// reduction, and the anchored exhaustive search, all against the
/// `best_size` snapshot. `dense_options` arrives with limits (and, with
/// several workers, the shared bound) already installed; `stats` is the
/// calling worker's shard.
SurvivorResult ProcessSurvivor(const BipartiteGraph& reduced,
                               const CenteredSubgraph& s,
                               const VerifyOptions& options,
                               const DenseMbbOptions& dense_options,
                               std::uint32_t best_size, SearchContext& ctx,
                               CsrScratch& scratch, SearchStats& stats) {
  SurvivorResult out;

  // Stale pruning: the incumbent may have grown since step 2, through
  // earlier survivors' searches.
  if (std::min(s.same_side.size(), s.other_side.size()) <= best_size) {
    ++stats.subgraphs_pruned_size;
    return out;
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
    std::vector<VertexId> kept_left;
    std::vector<VertexId> kept_right;
    if (options.sparse_reduction) {
      // Sparse path: peel H in place on the CSR scratch. The surviving
      // set is the (best_size+1)-core — the same vertices, in the same
      // list order, the core-number filter below keeps — and an empty
      // core is exactly the δ(H) <= best_size degeneracy prune.
      scratch.LoadSubgraph(reduced, *left_list, *right_list);
      scratch.PeelToCore(best_size + 1);
      if (scratch.NumAlive(Side::kLeft) == 0 ||
          scratch.NumAlive(Side::kRight) == 0) {
        ++stats.subgraphs_pruned_degeneracy;
        return out;
      }
      kept_left = scratch.LiveOldIds(Side::kLeft);
      kept_right = scratch.LiveOldIds(Side::kRight);
    } else {
      const InducedSubgraph induced =
          reduced.Induce(*left_list, *right_list);
      const CoreDecomposition cores = ComputeCores(induced.graph);
      if (cores.degeneracy <= best_size) {
        ++stats.subgraphs_pruned_degeneracy;
        return out;
      }
      for (VertexId l = 0; l < induced.graph.num_left(); ++l) {
        if (cores.core[induced.graph.GlobalIndex(Side::kLeft, l)] >
            best_size) {
          kept_left.push_back(induced.left_to_old[l]);
        }
      }
      for (VertexId r = 0; r < induced.graph.num_right(); ++r) {
        if (cores.core[induced.graph.GlobalIndex(Side::kRight, r)] >
            best_size) {
          kept_right.push_back(induced.right_to_old[r]);
        }
      }
    }
    stats.core_reduction_vertices_removed +=
        (left_list->size() + right_list->size()) -
        (kept_left.size() + kept_right.size());
    if (s.center_side == Side::kRight) std::swap(kept_left, kept_right);
    // kept_left is now on the centre's side again.
    if (std::find(kept_left.begin(), kept_left.end(), s.same_side[0]) ==
        kept_left.end()) {
      ++stats.subgraphs_pruned_size;
      return out;
    }
    // Keep the centre in front for the anchored search.
    std::erase(kept_left, s.same_side[0]);
    kept_left.insert(kept_left.begin(), s.same_side[0]);
    center_side_vertices = std::move(kept_left);
    other_side_vertices = std::move(kept_right);
    if (std::min(center_side_vertices.size(), other_side_vertices.size()) <=
        best_size) {
      ++stats.subgraphs_pruned_size;
      return out;
    }
  }

  // Lines 3-5: the representation switch — only the compacted kernel is
  // materialised in dense BitMatrix form for the anchored search.
  if (options.sparse_reduction) ++stats.sparse_to_dense_switches;
  const DenseSubgraph dense = DenseSubgraph::Build(
      reduced, center_side_vertices, other_side_vertices, s.center_side);
  ++stats.subgraphs_searched;

  MbbResult result;
  if (options.use_dense_search) {
    result = DenseMbbSolveAnchored(dense, /*anchor=*/0, dense_options,
                                   best_size, &ctx);
  } else {
    result = BasicBbSolveAnchored(dense, /*anchor=*/0, dense_options.limits,
                                  best_size, &ctx);
  }
  stats.Merge(result.stats);
  out.exact = result.exact;
  if (!result.exact) out.stop_cause = result.stats.stop_cause;
  if (result.best.BalancedSize() > best_size) {
    out.best = dense.ToOriginal(result.best);
    out.best_size = result.best.BalancedSize();
  }
  return out;
}

}  // namespace

/// The survivor fan-out: workers claim survivors from a shared counter,
/// each with its own pooled context and stats shard, all pruning against
/// one atomic incumbent and observing one stop token. One worker is the
/// plain in-order scan.
VerifyOutcome VerifyMbb(const BipartiteGraph& reduced,
                        std::uint32_t initial_best_size,
                        std::span<const CenteredSubgraph> survivors,
                        const VerifyOptions& options,
                        SearchContext* context) {
  VerifyOutcome out;
  out.best_size = initial_best_size;
  out.stats.terminated_step = 3;

  const std::size_t num_workers =
      EffectiveThreadCount(options.num_threads, survivors.size());
  // One worker's live snapshot is already timing-independent.
  const bool frozen = options.dense.deterministic && num_workers > 1;
  SharedBound shared_bound(initial_best_size);
  DenseMbbOptions dense_options = options.dense;
  // The fan-out is the parallelism here: with several workers the anchored
  // searches stay sequential inside (no nested work-stealing). One worker
  // gets no speedup from the fan-out — a single hard survivor is exactly
  // the one-worst-case-query scenario — so it hands the requested threads
  // to the anchored search's work-stealing subtree layer instead.
  dense_options.num_threads = num_workers == 1 ? options.num_threads : 1;
  if (num_workers > 1) {
    // In deterministic mode the searches prune against the step-2
    // incumbent only, so each survivor's search — and the lowest-index
    // reduce below — does not depend on worker timing.
    dense_options.shared_bound = frozen ? nullptr : &shared_bound;
  }
  if (dense_options.limits.stop_token == nullptr) {
    // One token for the whole fleet: the first worker whose clock poll sees
    // the deadline trips it, and every other worker aborts at its next
    // limit check instead of discovering the deadline on its own schedule.
    dense_options.limits.stop_token = std::make_shared<StopToken>();
  }
  const std::shared_ptr<StopToken>& stop = dense_options.limits.stop_token;

  struct WorkerState {
    SearchContext ctx;
    CsrScratch scratch;
    SearchStats stats;
    bool exact = true;
  };
  std::vector<WorkerState> workers(num_workers);
  std::vector<SurvivorResult> results(survivors.size());

  ParallelFor(num_workers, survivors.size(),
              [&](std::size_t worker, std::size_t item) {
                WorkerState& state = workers[worker];
                if (stop->StopRequested()) {
                  // Drain cheaply: claimed after the stop, never searched.
                  ++state.stats.subgraphs_skipped;
                  state.exact = false;
                  return;
                }
                // Worker 0 is the caller's thread: its anchored searches
                // pool their branch frames in `context`.
                SearchContext& ctx =
                    worker == 0 && context != nullptr ? *context : state.ctx;
                SurvivorResult result = ProcessSurvivor(
                    reduced, survivors[item], options, dense_options,
                    frozen ? initial_best_size : shared_bound.Load(), ctx,
                    state.scratch, state.stats);
                if (result.best_size > 0 && !frozen) {
                  shared_bound.RaiseTo(result.best_size);
                }
                if (!result.exact) {
                  state.exact = false;
                  // The first inexact search — whatever its cause — aborts
                  // the whole scan, so a per-search recursion cap doesn't
                  // silently turn into survivor-count-many capped searches.
                  // (Deadlines already tripped the token inside the limit
                  // check.) Survivors claimed after it count as skipped.
                  stop->RequestStop(result.stop_cause == StopCause::kNone
                                        ? StopCause::kExternal
                                        : result.stop_cause);
                }
                results[item] = std::move(result);
              });

  for (WorkerState& state : workers) {
    out.stats.Merge(state.stats);
    if (!state.exact) out.exact = false;
  }
  if (out.stats.stop_cause == StopCause::kNone && stop->StopRequested()) {
    out.stats.stop_cause = stop->cause();
  }

  // Reduce: the lowest-index recorded improvement at the global maximum
  // wins. With several workers, which survivors record one depends on when
  // their worker snapshotted the shared bound, so between equally-sized
  // optima the reported biclique (never its size) may vary with
  // interleaving.
  for (SurvivorResult& result : results) {
    if (result.best_size > out.best_size) {
      out.best = std::move(result.best);
      out.best_size = result.best_size;
      out.improved = true;
    }
  }
  return out;
}

}  // namespace mbb
