#ifndef MBB_CORE_VERIFY_MBB_H_
#define MBB_CORE_VERIFY_MBB_H_

#include <cstdint>
#include <span>

#include "core/dense_mbb.h"
#include "core/stats.h"
#include "graph/bipartite_graph.h"
#include "order/vertex_centered.h"

namespace mbb {

/// Configuration of the paper's Algorithm 8 (`verifyMBB`, step 3).
struct VerifyOptions {
  /// Reduce each surviving subgraph to its (|A*|+1)-core before searching
  /// (line 2); part of the bd2-ablated core optimizations. The survivor is
  /// peeled in place on a reusable `CsrScratch`, and only the compacted
  /// kernel is materialised as a dense `BitMatrix` subgraph for the
  /// anchored search (counted in `SearchStats::sparse_to_dense_switches`).
  bool use_core_reduction = true;
  /// Use denseMBB (Algorithm 3) for the anchored exhaustive search; when
  /// false, the plain basicBB (Algorithm 1) runs instead — the bd3
  /// ablation ("without branching technique").
  bool use_dense_search = true;
  /// Worker threads for the survivor fan-out: each surviving subgraph is an
  /// independent anchored search, so step 3 is embarrassingly parallel.
  /// Workers own a pooled `SearchContext` and a stats shard each, prune
  /// against one shared atomic incumbent, and share one stop token so a
  /// deadline stops the whole fleet consistently. 1 (the default) runs one
  /// worker, in order, in the caller's thread; 0 = one worker per hardware
  /// thread. Whenever the fan-out has one worker — in particular with
  /// exactly one survivor — the requested threads go to the anchored
  /// search's work-stealing subtree layer (`dense.num_threads`) instead,
  /// so a single worst-case subgraph still uses every core.
  std::uint32_t num_threads = 1;
  /// Unread: kept only because bench_record's replay still sets it.
  bool sparse_reduction = true;
  DenseMbbOptions dense;
};

/// Outcome of verifyMBB over the surviving centred subgraphs.
struct VerifyOutcome {
  std::uint32_t best_size = 0;
  bool improved = false;
  /// Improvement in the reduced graph's ids (when `improved`).
  Biclique best;
  SearchStats stats;
  /// False when a search limit fired before all subgraphs were certified.
  bool exact = true;
};

/// Runs Algorithm 8: for every surviving vertex-centred subgraph, reduces
/// it against the incumbent, then runs the anchored exhaustive search
/// ("must contain the centre") with the incumbent as lower bound.
/// Worker 0 runs on the caller's thread and its anchored searches share
/// `context`'s pooled scratch (a transient context is used when nullptr);
/// every other worker owns its own context. The stop token and deadline
/// are checked before each survivor, and the first inexact anchored
/// search — deadline, recursion cap, or external stop — aborts the whole
/// scan; survivors cut off this way are counted in
/// `stats.subgraphs_skipped` with the cause in `stats.stop_cause`. On runs
/// no limit interrupts, every worker count returns the same `best_size`
/// (pruning against a tighter shared bound is sound), though with several
/// workers the winning biclique may differ between equally-sized optima.
VerifyOutcome VerifyMbb(const BipartiteGraph& reduced,
                        std::uint32_t initial_best_size,
                        std::span<const CenteredSubgraph> survivors,
                        const VerifyOptions& options = {},
                        SearchContext* context = nullptr);

}  // namespace mbb

#endif  // MBB_CORE_VERIFY_MBB_H_
